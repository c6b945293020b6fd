"""The benchmark's three workloads as seeded lists of operations.

Every operation stands for one CLI invocation (``lossbell.cli.main``) or one
public library call.  Inputs come only from the workload seed: family graphs
from ``families.generate``, random connected graphs from
``graphs.random_connected_graph`` fed a seeded ``random.Random``, and the
graph and distribution files the CLI reads, written into a work directory.

``loss_sets`` on each operation is counted from its inputs, never from its
output: subsets enumerated for sweep-exhaustive, loss sets checked against
the oracle for verify-oracle, loss realizations evaluated for query-mixture.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref
from lossbell import families, graphs
from lossbell import loss as loss_mod

WORKLOADS = ("sweep-exhaustive", "verify-oracle", "query-mixture")
FAMILIES = ("ring", "star", "two-centered-ghz", "dense-center")


@dataclass
class Op:
    label: str
    kind: str
    loss_sets: int
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    graph: object = None  # the lossbell Graph the operation runs on
    params: dict = field(default_factory=dict)
    expect_error: bool = False
    expected: object = None  # reference result, filled once before timing


# Maximum-degree vertex counts for successive random graphs.  A verdict or an
# oracle check costs work per surviving root, and the oracle's parity loop
# per edge, so each slot's graph is drawn until it has its scheduled root
# count and the generator's expected edge count: the work of a round then
# stays alike across seeds while the graphs themselves change.
ROOT_COUNTS = (1, 2, 1, 3, 1, 2)


# Realization counts for successive `mixture --dist` operations.  A
# distribution costs work per realization and per lost vertex, so counts
# follow this schedule and the j-th realization loses j mod 4 vertices: the
# seed picks the vertices and the probabilities, not the amount of work.
DIST_COUNTS = (4, 8, 12, 6, 10, 5, 9, 7, 11)


def _typical(g, slot: int, extra_edge_prob: float) -> bool:
    n = g.n
    edges = n - 1 + round(extra_edge_prob * ((n * (n - 1)) // 2 - (n - 1)))
    return (len(g.roots) == ROOT_COUNTS[slot % len(ROOT_COUNTS)]
            and len(g.edges) == edges)


def _family(kind: str, n: int):
    return families.generate(families.FamilySpec(kind, n))


def _vertices(vs) -> str:
    return ",".join(str(v) for v in sorted(vs))


def _label(argv) -> str:
    """The command line with input files shown by name only."""
    return " ".join(Path(a).name if Path(a).is_absolute() else a for a in argv[1:])


class _Inputs:
    """Seeded source of graphs and files for one workload."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        self.rng = random.Random(f"{name}/{seed}")
        self.workdir = workdir
        self._files = 0
        self._dists = 0

    def random_graph(self, n: int, slot: int | None, extra_edge_prob: float = 0.25):
        """Random connected graph; with a slot, a typical one for that slot."""
        while True:
            g = graphs.random_connected_graph(n, self.rng, extra_edge_prob)
            if slot is None or _typical(g, slot, extra_edge_prob):
                return g

    def graph_seed(self, n: int, slot: int) -> tuple[int, object]:
        """A seed for ``verify --random 1`` and the typical graph it draws."""
        while True:
            seed = self.rng.randrange(10**6)
            g = graphs.random_connected_graph(n, random.Random(seed))
            if _typical(g, slot, 0.25):
                return seed, g

    def graph_file(self, g) -> str:
        self._files += 1
        path = self.workdir / f"g{self._files}.json"
        path.write_text(g.dumps())
        return str(path)

    def dist_file(self, entries) -> str:
        self._files += 1
        path = self.workdir / f"d{self._files}.txt"
        path.write_text(
            "".join(f"{p} : {_vertices(vs)}\n" for p, vs in entries)
        )
        return str(path)

    def dist_count(self) -> int:
        """Realization count of the next distribution."""
        self._dists += 1
        return DIST_COUNTS[(self._dists - 1) % len(DIST_COUNTS)]

    def non_dyadic_weights(self, count: int) -> list[Fraction]:
        weights = [self.rng.randint(1, 9) for _ in range(count)]
        total = sum(weights)
        if total & (total - 1) == 0:  # a power of two would make every p dyadic
            weights[0] += 1
            total += 1
        return [Fraction(w, total) for w in weights]


# -- sweep-exhaustive -----------------------------------------------------------


def _sweep_op(graph_args, g, candidates, bound, max_size=None, extra=()):
    argv = ["sweep", *graph_args, *extra, "--bound", bound, "--format", "jsonl"]
    if max_size is not None:
        argv += ["--max-size", str(max_size)]
    count = ref.sweep_subset_count(len(candidates), g.n, max_size)
    return Op(
        label=_label(argv),
        kind="sweep",
        loss_sets=count,
        argv=argv,
        graph=g,
        params={"candidates": tuple(sorted(candidates)), "bound": bound,
                "max_size": max_size},
    )


def _tolerance_op(label, g, candidates, semantics, bound):
    candidates = frozenset(candidates)

    def call():
        return loss_mod.max_tolerable_loss(g, candidates, semantics, bound)

    return Op(
        label=f"max_tolerable_loss {label} {semantics} {bound}",
        kind="tolerance",
        loss_sets=ref.sweep_subset_count(len(candidates), g.n, None),
        call=call,
        graph=g,
        params={"candidates": tuple(sorted(candidates)), "semantics": semantics,
                "bound": bound},
    )


def _critical_op(label, g, max_size, bound):
    def call():
        return loss_mod.critical_sets(g, max_size, bound)

    return Op(
        label=f"critical_sets {label} max_size={max_size} {bound}",
        kind="critical",
        loss_sets=ref.critical_subset_count(g.n, max_size),
        call=call,
        graph=g,
        params={"max_size": max_size, "bound": bound},
    )


def sweep_exhaustive(inp: _Inputs, smoke: bool) -> list[Op]:
    ops = []
    bounds = ("induced", "full")
    if smoke:
        g = _family("dense-center", 8)
        ops.append(_sweep_op(["--family", "dense-center", "--n", "8"], g,
                             range(8), "induced"))
        r = inp.random_graph(6, 0)
        ops.append(_sweep_op(["--file", inp.graph_file(r)], r, range(6), "full"))
        ops.append(_tolerance_op("star n=6 leaves", _family("star", 6),
                                 range(1, 6), "worst-case", "induced"))
        ops.append(_critical_op("ring n=6", _family("ring", 6), 2, "induced"))
        return ops

    # each family over all vertices at n=10 under one bound and over its
    # pendants at larger n under the other (a ring has none: one empty subset)
    for kind, n, bound in (("ring", 12, "full"), ("star", 12, "induced"),
                           ("two-centered-ghz", 12, "full"),
                           ("dense-center", 16, "induced")):
        g = _family(kind, 10)
        other = bounds[1 - bounds.index(bound)]
        ops.append(_sweep_op(["--family", kind, "--n", "10"], g, range(10), other))
        g = _family(kind, n)
        ops.append(_sweep_op(["--family", kind, "--n", str(n)], g, g.leaves(),
                             bound, extra=["--leaves-only"]))
    # large n, small k
    g = _family("dense-center", 22)
    ops.append(_sweep_op(["--family", "dense-center", "--n", "22"], g,
                         range(22), "induced", max_size=2))
    for i, kind in enumerate(FAMILIES):
        g = _family(kind, 16)
        ops.append(_sweep_op(["--family", kind, "--n", "16"], g, range(16),
                             bounds[i % 2], max_size=2))
    # seeded random connected graphs
    for i in range(12):
        r = inp.random_graph(8, i)
        ops.append(_sweep_op(["--file", inp.graph_file(r)], r, range(8),
                             bounds[i % 2]))
    for i in range(12):
        r = inp.random_graph(12, i)
        ops.append(_sweep_op(["--file", inp.graph_file(r)], r, range(12),
                             bounds[i % 2], max_size=2))
    for i in range(6):
        r = inp.random_graph(10, i)
        ops.append(_sweep_op(["--file", inp.graph_file(r)], r, range(10),
                             bounds[i % 2], max_size=3))
    for i in range(6):
        r = inp.random_graph(12, i)
        cands = inp.rng.sample(range(12), 7)
        ops.append(_sweep_op(["--file", inp.graph_file(r)], r, cands,
                             bounds[i % 2], extra=["--candidates", _vertices(cands)]))
    # tolerance under both semantics and both bounds
    for kind, n in (("star", 10), ("two-centered-ghz", 10), ("dense-center", 12)):
        g = _family(kind, n)
        for semantics in ("best-case", "worst-case"):
            for bound in bounds:
                ops.append(_tolerance_op(f"{kind} n={n} leaves", g, g.leaves(),
                                         semantics, bound))
    for i in range(8):
        r = inp.random_graph(9, i)
        cands = inp.rng.sample(range(9), 6)
        ops.append(_tolerance_op(f"random n=9 {_vertices(cands)}", r, cands,
                                 ("best-case", "worst-case")[i % 2],
                                 bounds[i // 2 % 2]))
    # inclusion-minimal critical sets
    for kind in FAMILIES:
        g = _family(kind, 10)
        for bound in bounds:
            ops.append(_critical_op(f"{kind} n=10", g, 2, bound))
    for i in range(24):
        r = inp.random_graph(8, i)
        ops.append(_critical_op("random n=8", r, 3, bounds[i % 2]))
    return ops


# -- verify-oracle ----------------------------------------------------------------


def _verify_random_op(inp: _Inputs, n: int, slot: int, max_loss: int,
                      max_sets: int = 500):
    seed, g = inp.graph_seed(n, slot)
    sets = ref.verify_loss_sets(n, max_loss, max_sets)
    argv = ["verify", "--random", "1", "--n", str(n), "--max-loss", str(max_loss),
            "--max-sets", str(max_sets), "--seed", str(seed)]
    return Op(label=_label(argv), kind="verify", loss_sets=len(sets),
              argv=argv, graph=g, params={"loss_sets": sets})


def _verify_family_op(kind: str, n: int, loss_size: int, max_sets: int = 500):
    g = _family(kind, n)
    sets = ref.verify_loss_sets(n, loss_size, max_sets)
    argv = ["verify", "--family", kind, "--n", str(n), "--loss-size",
            str(loss_size), "--max-sets", str(max_sets)]
    return Op(label=_label(argv), kind="verify", loss_sets=len(sets),
              argv=argv, graph=g, params={"loss_sets": sets})


def _invariance_op(inp: _Inputs, n: int, slot: int, max_loss: int):
    seed, g = inp.graph_seed(n, slot)
    sets = [s for s in ref.verify_loss_sets(n, max_loss, 500) if s]
    argv = ["verify", "--replacement-invariance", "--random", "1", "--n", str(n),
            "--max-loss", str(max_loss), "--seed", str(seed)]
    return Op(label=_label(argv), kind="invariance", loss_sets=len(sets),
              argv=argv, graph=g, params={"loss_sets": sets})


def verify_oracle(inp: _Inputs, smoke: bool) -> list[Op]:
    if smoke:
        return [
            _verify_random_op(inp, 6, 0, 1),
            _verify_family_op("star", 6, 1),
            _invariance_op(inp, 6, 0, 1),
        ]
    ops = []
    for i in range(24):
        ops.append(_verify_random_op(inp, 8, i, 2))
    for i in range(16):
        ops.append(_verify_random_op(inp, 8, i, 1))
    for i in range(12):
        ops.append(_verify_random_op(inp, 10, i, 1))
    for i in range(6):
        ops.append(_verify_random_op(inp, 12, i, 1, max_sets=6))
    for kind in FAMILIES:
        for n in (8, 10):
            ops.append(_verify_family_op(kind, n, 2 if n == 8 else 1))
        ops.append(_verify_family_op(kind, 12, 1, max_sets=6))
        ops.append(_verify_family_op(kind, 14, 1, max_sets=2))
    for i in range(20):
        ops.append(_invariance_op(inp, 8, i, 2))
    for i in range(6):
        ops.append(_invariance_op(inp, 10, i, 1))
    return ops


# -- query-mixture -----------------------------------------------------------------


def _analyze_op(graph_args, g, loss):
    argv = ["analyze", *graph_args, "--format", "jsonl"]
    if loss:
        argv += ["--lose", _vertices(loss)]
    return Op(label=_label(argv), kind="analyze", loss_sets=1, argv=argv,
              graph=g, params={"loss": tuple(sorted(loss))})


def _dist_op(inp: _Inputs, graph_args, g, hypothesis):
    probs = inp.non_dyadic_weights(inp.dist_count())
    entries = []
    for j, p in enumerate(probs):
        entries.append((p, tuple(sorted(inp.rng.sample(range(g.n), j % 4)))))
    root = min(g.roots - frozenset(hypothesis))
    argv = ["mixture", *graph_args, "--dist", inp.dist_file(entries),
            "--root", str(root), "--format", "jsonl"]
    if hypothesis:
        argv += ["--hypothesis", _vertices(hypothesis)]
    return Op(label=_label(argv), kind="dist", loss_sets=len(entries),
              argv=argv, graph=g,
              params={"entries": entries, "root": root,
                      "hypothesis": tuple(sorted(hypothesis)) or None})


def _grid_op(graph_args, g, candidates, hypothesis, grid_points, p_max):
    root = min(g.roots)
    cands = tuple(sorted(set(candidates) - {root}))
    argv = ["mixture", *graph_args, "--candidates", _vertices(cands),
            "--hypothesis", _vertices(hypothesis), "--grid-points",
            str(grid_points), "--p-max", p_max, "--format", "jsonl"]
    grid = [Fraction(p_max) * j / grid_points for j in range(grid_points)]
    return Op(
        label=_label(argv),
        kind="grid",
        loss_sets=2 * (grid_points + 2) * (len(cands) + 1),
        argv=argv,
        graph=g,
        params={"root": root, "candidates": cands,
                "hypothesis": tuple(sorted(hypothesis)), "grid": grid},
    )


# Fails today: cli.main lets the IndexError for vertex 99 escape as a
# traceback instead of ending in one "error:" line with exit code 1.
BAD_VERTEX_ARGV = ["analyze", "--family", "star", "--n", "6",
                   "--lose-leaves-of-root", "99"]


def _bad_vertex_op() -> Op:
    return Op(label=" ".join(BAD_VERTEX_ARGV[1:]), kind="usage-error",
              loss_sets=0, argv=list(BAD_VERTEX_ARGV), expect_error=True)


def _pendant_of(g, root: int) -> int:
    return min(v for v in g.neighborhood(root) if g.degree(v) == 1)


def _non_root(g) -> int:
    return max(set(range(g.n)) - g.roots)


def query_mixture(inp: _Inputs, smoke: bool) -> list[Op]:
    ops = []
    if smoke:
        g = _family("dense-center", 8)
        fam = ["--family", "dense-center", "--n", "8"]
        ops.append(_analyze_op(fam, g, ()))
        ops.append(_dist_op(inp, fam, g, (4,)))
        ops.append(_grid_op(fam, g, g.leaves(), (4,), 2, "1/3"))
        r = inp.random_graph(10, 1, 0.3)
        ops.append(_analyze_op(["--file", inp.graph_file(r)], r, r.roots))
        ops.append(_bad_vertex_op())
        return ops

    for kind in FAMILIES:
        for n in (32, 64, 128, 256):
            g = _family(kind, n)
            fam = ["--family", kind, "--n", str(n)]
            ops.append(_analyze_op(fam, g, ()))
            ops.append(_analyze_op(fam, g, inp.rng.sample(range(n), 3)))
            if g.leaves():
                k = inp.rng.randint(1, 4)
                ops.append(_analyze_op(fam, g, inp.rng.sample(g.leaves(), k)))
            if len(g.roots) < n:
                ops.append(_analyze_op(fam, g, g.roots))
    randoms = []
    for n in (32, 48, 64, 96, 128, 192, 256) * 2:
        r = inp.random_graph(n, None, 4 / n)
        randoms.append((["--file", inp.graph_file(r)], r))
    for args, r in randoms:
        ops.append(_analyze_op(args, r, r.roots))  # the induced-only path
        ops.append(_analyze_op(args, r, inp.rng.sample(range(r.n), 3)))
    for kind, n in (("dense-center", 32), ("dense-center", 64), ("star", 64),
                    ("two-centered-ghz", 64), ("ring", 48)):
        g = _family(kind, n)
        fam = ["--family", kind, "--n", str(n)]
        hyp = (_pendant_of(g, min(g.roots)),) if g.leaves() else (n - 1,)
        ops.append(_dist_op(inp, fam, g, ()))
        ops.append(_dist_op(inp, fam, g, hyp))
    for args, r in randoms[:10]:
        ops.append(_dist_op(inp, args, r, ()))
        ops.append(_dist_op(inp, args, r, (_non_root(r),)))
    for kind, n, p_max in (("dense-center", 32, "1/3"), ("dense-center", 48, "2/5"),
                           ("two-centered-ghz", 32, "1/6"), ("star", 48, "1/5")):
        g = _family(kind, n)
        fam = ["--family", kind, "--n", str(n)]
        root = min(g.roots)
        ops.append(_grid_op(fam, g, g.leaves(), (_pendant_of(g, root),), 3, p_max))
    for args, r in randoms[:8]:
        cands = inp.rng.sample(range(r.n), 6)
        ops.append(_grid_op(args, r, cands, (_non_root(r),), 4, "1/3"))
    ops.append(_bad_vertex_op())
    return ops


BUILDERS = {
    "sweep-exhaustive": sweep_exhaustive,
    "verify-oracle": verify_oracle,
    "query-mixture": query_mixture,
}


def build(name: str, seed: int, workdir: Path, smoke: bool = False) -> list[Op]:
    """The workload's operation list; the same seed gives the same list."""
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](_Inputs(name, seed, workdir), smoke)

