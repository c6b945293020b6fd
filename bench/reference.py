"""Reference checker for the benchmark, written from the paper's formulas.

It shares no code with ``lossbell``: graphs are adjacency lists of plain
Python sets, values a + b*sqrt(2) are pairs of rationals, and verdicts are
integer comparisons.  The rules it implements:

* Bell operator anchored at a maximum-degree vertex r ("root"); classical
  bound n_max + N - 1, quantum value (2*sqrt(2) - 1)*n_max + N - 1.
* After losing L, with B the union of the lost vertices' closed
  neighborhoods: W = N(r) - B and T = V - B - N[r].  The expectation is
  |T| + sqrt(2)*(|W| + n_max) when L misses N[r], and |T| + sqrt(2)*|W|
  otherwise.
* The survivor bound is the classical bound of the subgraph on V - L: its
  maximum degree among survivors plus its vertex count minus one, undefined
  when that subgraph has no edges.
* ``t + sqrt(2)*w > B`` holds if B - t < 0, or else if 2*w**2 > (B - t)**2.
* A surviving-subgraph generator at vertex i, on a state that actually lost
  A, has expectation 1 when i survived A and no neighbor of i lies in the
  hypothesized loss H or in A, and 0 otherwise.  Its coefficient is
  sqrt(2)*n_max(subgraph) at the anchor, sqrt(2) at the anchor's surviving
  neighbors and 1 elsewhere.
* When every root is lost, verdicts anchor at the survivor subgraph's own
  maximum-degree vertices, evaluated generator by generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

# -- exact a + b*sqrt(2) arithmetic on (Fraction, Fraction) pairs -------------


def q(a=0, b=0) -> tuple[Fraction, Fraction]:
    return (Fraction(a), Fraction(b))


def q_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def q_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def q_mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def q_div(x, y):
    norm = y[0] * y[0] - 2 * y[1] * y[1]
    return q_mul(x, (y[0] / norm, -y[1] / norm))


def q_sign(x) -> int:
    a, b = x
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    return sa if a * a > 2 * b * b else sb


def q_float(x) -> float:
    return float(x[0]) + float(x[1]) * 2**0.5


def exceeds(t: int, w: int, bound: int) -> bool:
    """Integer test of t + sqrt(2)*w > bound for w >= 0."""
    gap = bound - t
    if gap < 0:
        return True
    return 2 * w * w > gap * gap


# -- graphs as adjacency sets ------------------------------------------------


class RefGraph:
    def __init__(self, n: int, edges) -> None:
        self.n = n
        self.adj = [set() for _ in range(n)]
        for i, j in edges:
            self.adj[i].add(j)
            self.adj[j].add(i)
        self.closed = [self.adj[i] | {i} for i in range(n)]
        self.vertices = set(range(n))
        self.n_max = max(len(s) for s in self.adj)
        self.roots = sorted(i for i in range(n) if len(self.adj[i]) == self.n_max)
        self.full_bound = self.n_max + n - 1
        self.quantum = q(n - 1 - self.n_max, 2 * self.n_max)

    def survivor_degrees(self, loss) -> dict[int, int]:
        keep = self.vertices - set(loss)
        return {i: len(self.adj[i] & keep) for i in keep}


@dataclass(frozen=True)
class RefRecord:
    root: int
    scope: str
    value: tuple[Fraction, Fraction]
    violates_full: bool | None
    violates_induced: bool
    w: int | None
    t: int | None
    root_hit: bool | None
    anchor_is_induced_root: bool


@dataclass(frozen=True)
class RefReport:
    loss: tuple[int, ...]
    any_root_lost: bool
    induced_bound: int | None
    induced_n: int
    induced_n_max: int
    records: tuple[RefRecord, ...]

    def violates(self, bound: str) -> bool:
        if bound == "full":
            return any(rec.violates_full for rec in self.records)
        return any(rec.violates_induced for rec in self.records)

    def best_value(self):
        best = None
        for rec in self.records:
            if best is None or q_sign(q_sub(rec.value, best)) > 0:
                best = rec.value
        return best


def induced_value(g: RefGraph, r: int, hypothesis, actual) -> tuple[Fraction, Fraction]:
    """Subgraph operator for V - hypothesis anchored at r, on the state
    that lost ``actual``."""
    hypothesis = set(hypothesis)
    actual = set(actual)
    keep = g.vertices - hypothesis
    degrees = {i: len(g.adj[i] & keep) for i in keep}
    sub_n_max = max(degrees.values())
    if sub_n_max == 0:
        raise ValueError("surviving subgraph has no edges")
    touched = hypothesis | actual
    a = b = 0
    for i in keep:
        if i in actual or not g.adj[i].isdisjoint(touched):
            continue
        if i == r:
            b += sub_n_max
        elif i in g.adj[r]:
            b += 1
        else:
            a += 1
    return q(a, b)


def counting_sets(g: RefGraph, r: int, loss) -> tuple[int, int, bool]:
    """(|T|, |W|, root_hit) for root r and loss set ``loss``."""
    blocked = set()
    for lost in loss:
        blocked |= g.closed[lost]
    w = len(g.adj[r] - blocked)
    t = g.n - len(blocked | g.closed[r])
    return t, w, not g.closed[r].isdisjoint(loss)


def full_value(g: RefGraph, r: int, loss) -> tuple[int, int]:
    """(t, w) with the full-operator expectation t + sqrt(2)*w at root r."""
    t, w, hit = counting_sets(g, r, loss)
    return t, (w if hit else w + g.n_max)


def report(g: RefGraph, loss) -> RefReport:
    loss = frozenset(loss)
    degrees = g.survivor_degrees(loss)
    sub_n_max = max(degrees.values())
    induced_bound = sub_n_max + len(degrees) - 1 if sub_n_max > 0 else None
    surviving = [r for r in g.roots if r not in loss]
    records = []
    if surviving:
        for r in surviving:
            t, w, hit = counting_sets(g, r, loss)
            b = w if hit else w + g.n_max
            records.append(
                RefRecord(
                    root=r,
                    scope="both",
                    value=q(t, b),
                    violates_full=exceeds(t, b, g.full_bound),
                    violates_induced=induced_bound is not None
                    and exceeds(t, b, induced_bound),
                    w=w,
                    t=t,
                    root_hit=hit,
                    anchor_is_induced_root=sub_n_max > 0
                    and degrees[r] == sub_n_max,
                )
            )
    elif induced_bound is not None:
        for r in sorted(i for i, d in degrees.items() if d == sub_n_max):
            value = induced_value(g, r, loss, loss)
            records.append(
                RefRecord(
                    root=r,
                    scope="induced-only",
                    value=value,
                    violates_full=None,
                    violates_induced=exceeds(
                        int(value[0]), int(value[1]), induced_bound
                    ),
                    w=None,
                    t=None,
                    root_hit=None,
                    anchor_is_induced_root=True,
                )
            )
    return RefReport(
        loss=tuple(sorted(loss)),
        any_root_lost=any(r in loss for r in g.roots),
        induced_bound=induced_bound,
        induced_n=len(degrees),
        induced_n_max=sub_n_max,
        records=tuple(records),
    )


# -- sweeps ------------------------------------------------------------------


@dataclass
class RefRow:
    size: int
    n_subsets: int = 0
    n_violating: int = 0
    witness: tuple[int, ...] | None = None
    witness_value: tuple | None = None
    witness_bound: int | None = None
    counterexample: tuple[int, ...] | None = None


def sweep_sizes(m: int, n: int, max_size: int | None) -> list[int]:
    limit = m if m < n else n - 1
    if max_size is not None:
        limit = min(limit, max_size)
    return list(range(limit + 1))


def sweep_subset_count(m: int, n: int, max_size: int | None) -> int:
    return sum(comb(m, k) for k in sweep_sizes(m, n, max_size))


def sweep(g: RefGraph, candidates, max_size: int | None = None) -> dict[str, list[RefRow]]:
    """Per-size rows for both bounds, subsets in lexicographic order."""
    cand = sorted(candidates)
    out: dict[str, list[RefRow]] = {"full": [], "induced": []}
    for k in sweep_sizes(len(cand), g.n, max_size):
        rows = {bound: RefRow(k) for bound in out}
        for combo in combinations(cand, k):
            rep = report(g, combo)
            for bound, row in rows.items():
                row.n_subsets += 1
                if rep.violates(bound):
                    row.n_violating += 1
                    if row.witness is None:
                        row.witness = combo
                        row.witness_value = rep.best_value()
                        row.witness_bound = (
                            g.full_bound if bound == "full" else rep.induced_bound
                        )
                elif row.counterexample is None:
                    row.counterexample = combo
        for bound, row in rows.items():
            out[bound].append(row)
    return out


def max_tolerable(rows: list[RefRow], semantics: str) -> tuple[int, tuple | None, tuple | None]:
    """(k, witness subset, breaking subset) from one bound's full sweep."""
    if semantics == "best-case":
        good = [row.size for row in rows if row.n_violating > 0]
    else:
        good = [row.size for row in rows if row.n_violating == row.n_subsets]
    k = max(good) if good else -1
    witness = rows[k].witness if k >= 0 else None
    breaking = rows[k + 1].counterexample if k + 1 < len(rows) else None
    return k, witness, breaking


def critical_sets(g: RefGraph, max_size: int, bound: str) -> list[tuple[int, ...]]:
    """Inclusion-minimal non-violating loss sets of size 1..max_size."""
    minimal: list[set] = []
    for k in range(1, min(max_size, g.n - 1) + 1):
        for combo in combinations(range(g.n), k):
            subset = set(combo)
            if any(m <= subset for m in minimal):
                continue
            if not report(g, combo).violates(bound):
                minimal.append(subset)
    return sorted((tuple(sorted(s)) for s in minimal), key=lambda s: (len(s), s))


def critical_subset_count(n: int, max_size: int) -> int:
    return sum(comb(n, k) for k in range(1, min(max_size, n - 1) + 1))


# -- verify ------------------------------------------------------------------


def verify_loss_sets(n: int, max_loss: int, max_sets: int) -> list[tuple[int, ...]]:
    """Loss sets the verify command visits: sizes 0..max_loss, capped."""
    out = []
    for k in range(max_loss + 1):
        if k >= n:
            break
        for combo in combinations(range(n), k):
            out.append(combo)
            if len(out) >= max_sets:
                return out
    return out


def identity_count(g: RefGraph, loss) -> int:
    """Identities verify checks for one loss set: every full generator, every
    survivor generator, and per surviving root the full operator plus the
    survivor operator when the survivors keep an edge."""
    loss = set(loss)
    roots_left = len([r for r in g.roots if r not in loss])
    degrees = g.survivor_degrees(loss)
    keeps_edge = max(degrees.values()) > 0
    return g.n + (g.n - len(loss)) + roots_left + (roots_left if keeps_edge else 0)


# -- mixtures ------------------------------------------------------------------


def mixture_value(g: RefGraph, entries, root: int, hypothesis=None):
    total = q()
    for prob, realization in entries:
        if hypothesis is None:
            value = q(*full_value(g, root, realization))
        else:
            value = induced_value(g, root, hypothesis, realization)
        total = q_add(total, q_mul(value, q(prob)))
    return total


def single_loss_entries(candidates, p: Fraction):
    share = p / len(candidates)
    return [(1 - p, ())] + [(share, (c,)) for c in candidates]


def survivor_bound(g: RefGraph, loss) -> int:
    degrees = g.survivor_degrees(loss)
    return max(degrees.values()) + len(degrees) - 1


@dataclass(frozen=True)
class RefCurve:
    points: tuple  # (p, full value, full margin, induced value, induced margin)
    full_bound: int
    induced_bound: int
    crossover: tuple | None
    crossover_in_unit_interval: bool


def mixture_curve(g: RefGraph, root: int, candidates, hypothesis, grid) -> RefCurve:
    induced_bound = survivor_bound(g, hypothesis)

    def point(p):
        entries = single_loss_entries(candidates, p)
        full = mixture_value(g, entries, root)
        induced = mixture_value(g, entries, root, hypothesis)
        return (
            p,
            full,
            q_sub(full, q(g.full_bound)),
            induced,
            q_sub(induced, q(induced_bound)),
        )

    _, _, f0, _, i0 = point(Fraction(0))
    _, _, f1, _, i1 = point(Fraction(1))
    slope_diff = q_sub(q_sub(f1, f0), q_sub(i1, i0))
    crossover = None
    inside = False
    if q_sign(slope_diff) != 0:
        crossover = q_div(q_sub(i0, f0), slope_diff)
        inside = q_sign(crossover) > 0 and q_sign(q_sub(crossover, q(1))) < 0
    return RefCurve(
        points=tuple(point(p) for p in grid),
        full_bound=g.full_bound,
        induced_bound=induced_bound,
        crossover=crossover,
        crossover_in_unit_interval=inside,
    )
