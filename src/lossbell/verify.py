"""Closed forms against the statevector oracle, check by check: the only
module that imports both sides (`loss` never consults the oracle and `oracle`
never calls a closed form)."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import combinations, islice
from math import comb

from .bell import bell_stabilizer_sum
from .graphs import Graph
from .loss import expectation_after_loss, generator_expectation
from .oracle import DEFAULT_STATE_CAP, REPLACEMENTS, LossyState
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


def check_graph(
    g: Graph, sets: Iterable[frozenset[int]], identities: tuple[str, ...],
    result: VerifyResult | None = None, cap: int = DEFAULT_STATE_CAP,
) -> VerifyResult:
    """Check the selected identity kinds on every loss set L of ``sets``,
    accumulating into ``result`` (a new one if None), on statevectors of at
    most ``cap`` qubits.

    generator/full, /survivor, /intact: ``generator_expectation`` with
    hypothesis and actual loss ({}, L) for every vertex, (L, L) and (L, {})
    for every survivor; bell/full, /survivor: ``expectation_after_loss`` at
    each surviving root against the full-graph and (if it has an edge) the
    survivor subgraph's operator; replacement: the spread of each root's
    full-graph operator over the replacement conventions.  Intact and
    replacement skip L = {}.  Every loss set's state shares the memo of the
    intact state, so each distinct survivor Pauli is computed once per call.
    """
    on = set(identities)
    if not on <= set(IDENTITIES):
        raise ValueError(f"unknown identity kinds {sorted(on - set(IDENTITIES))}")
    result = VerifyResult() if result is None else result
    full_ops = {r: bell_stabilizer_sum(g, r) for r in sorted(g.roots)}
    intact = LossyState(g, frozenset(), cap)
    for lost in sets:
        result.loss_sets += 1
        lossy = intact.with_loss(lost)
        survivors = tuple(sorted(g.vertices - lost))
        sub, mapping = g.induced_subgraph(survivors)

        def record(kind: str, vertex: int, want: float, got: float) -> None:
            tally = getattr(result, kind.partition("/")[0])
            tally.checks += 1
            if abs(want - got) > tally.worst:
                tally.worst = abs(want - got)
                tally.where = (kind, g.fingerprint, tuple(sorted(lost)), vertex)

        if "generator/full" in on:
            for i in range(g.n):
                want = generator_expectation(g, i, frozenset(), lost)
                got = lossy.pauli_expectation(stabilizer(g, i))
                record("generator/full", i, want, got)
        if on & {"generator/survivor", "generator/intact"}:
            for i in survivors:
                gen = stabilizer(sub, mapping[i]).embed(survivors, g.n)
                if "generator/survivor" in on:
                    want = generator_expectation(g, i, lost, lost)
                    record("generator/survivor", i, want, lossy.pauli_expectation(gen))
                if "generator/intact" in on and lost:
                    want = generator_expectation(g, i, lost, frozenset())
                    record("generator/intact", i, want, intact.pauli_expectation(gen))
        for r, op in full_ops.items():
            if on & {"bell/full", "bell/survivor"} and r not in lost:
                want = float(expectation_after_loss(g, r, lost))
                if "bell/full" in on:
                    record("bell/full", r, want, lossy.bell_expectation(op))
                if "bell/survivor" in on and sub.n_max > 0:
                    sub_op = bell_stabilizer_sum(sub, mapping[r], allow_non_root=True)
                    got = lossy.bell_expectation(sub_op, positions=survivors)
                    record("bell/survivor", r, want, got)
            if "replacement" in on and lost:
                values = [lossy.bell_expectation(op, replacement=x) for x in REPLACEMENTS]
                record("replacement", r, max(values), min(values))
    return result
