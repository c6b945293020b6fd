"""Batch command-line front-end.

Subcommands: analyze (verdicts for one loss set), sweep (exhaustive
per-size tolerance table), verify (closed-form vs statevector-oracle
equivalence), mixture (unknown-loss convex combinations), family
(list/emit the built-in topologies).

Structured output is JSON Lines with a schema_version field; every number
shown in the human tables is the decimal rendering of an exact value that
also appears in the structured output.  Exit codes: 0 success, 1 usage or
parse error, 2 budget/size caps, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import loss as loss_mod
from . import oracle
from .bell import bell_stabilizer_sum
from .errors import (
    BudgetExceededError,
    DistributionError,
    GraphFormatError,
    SizeCapExceededError,
)
from .families import KINDS, FamilySpec, generate
from .graphs import Graph, random_connected_graph
from .quad import Quad

SCHEMA_VERSION = 1
DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3


def _decimal(value: float) -> str:
    return format(value, ".12g")


def render_quad(q: Quad | None) -> str:
    if q is None:
        return "undefined"
    return f"{q} ~= {_decimal(float(q))}"


def _emit_json(doc: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    print(json.dumps(doc))


def _load_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "file", None):
        text = Path(args.file).read_text()
        return Graph.parse(text)
    if getattr(args, "family", None):
        if args.n is None:
            raise GraphFormatError("--family needs --n")
        return generate(FamilySpec(args.family, args.n))
    raise GraphFormatError("no input graph: pass --file or --family/--n")


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--file", help="graph document (JSON or edge-list form)")
    sub.add_argument("--family", choices=KINDS, help="built-in topology")
    sub.add_argument("--n", type=int, help="vertex count for --family")
    sub.add_argument(
        "--format",
        choices=("table", "jsonl"),
        default="table",
        help="human table or structured JSON Lines",
    )


def _parse_vertex_list(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise GraphFormatError(f"bad vertex list {text!r}") from exc


def _resolve_loss(args: argparse.Namespace, g: Graph) -> frozenset[int]:
    if args.lose is not None and args.lose_leaves_of_root is not None:
        raise GraphFormatError("--lose and --lose-leaves-of-root are exclusive")
    if args.lose is not None:
        return frozenset(_parse_vertex_list(args.lose))
    if args.lose_leaves_of_root is not None:
        hub = args.lose_leaves_of_root
        pendants = [v for v in g.neighborhood(hub) if g.degree(v) == 1]
        count = args.count if args.count is not None else len(pendants)
        if count > len(pendants):
            raise GraphFormatError(
                f"vertex {hub} has only {len(pendants)} pendant neighbors"
            )
        return frozenset(sorted(pendants)[:count])
    return frozenset()


def parse_distribution(text: str) -> loss_mod.LossDistribution:
    """Each line: "<numerator>/<denominator> : i,j,k" (empty set allowed)."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise DistributionError(f'line {lineno}: expected "p : vertices"')
        prob_part, _, set_part = line.partition(":")
        try:
            prob = Fraction(prob_part.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise DistributionError(
                f"line {lineno}: bad probability {prob_part.strip()!r}"
            ) from exc
        set_part = set_part.strip()
        if set_part in ("", "-"):
            subset: frozenset[int] = frozenset()
        else:
            try:
                subset = frozenset(int(p) for p in set_part.split(","))
            except ValueError as exc:
                raise DistributionError(
                    f"line {lineno}: bad vertex list {set_part!r}"
                ) from exc
        entries.append((prob, subset))
    if not entries:
        raise DistributionError("empty distribution file")
    return loss_mod.LossDistribution(tuple(entries))


# -- analyze -----------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    lost = _resolve_loss(args, g)
    report = loss_mod.violation_report(g, lost)
    if args.format == "jsonl":
        _emit_json({"kind": "loss_report", **report.to_dict()})
        return EXIT_OK
    print(f"graph {report.graph_fingerprint}: n={report.n} n_max={report.n_max} "
          f"connected={report.connected}")
    print(f"loss {sorted(lost) or '{}'}  (max-degree vertex lost: {report.any_root_lost})")
    print(f"bound (original graph) : {render_quad(report.full_bound)}")
    print(f"bound (survivor graph) : {render_quad(report.induced_bound)}")
    print(f"quantum maximum        : {render_quad(report.quantum)}")
    if not report.records:
        print("no admissible anchor vertex")
    for rec in report.records:
        extras = ""
        if rec.w_size is not None:
            extras = f"  |W|={rec.w_size} |T|={rec.t_size} root_hit={rec.root_hit}"
        print(
            f"root {rec.root} [{rec.scope}] expectation {render_quad(rec.expectation)}"
            f"  violates: original={rec.violates_full} survivor={rec.violates_induced}"
            f"{extras}"
        )
    return EXIT_OK


# -- sweep -------------------------------------------------------------------


def _resolve_candidates(args: argparse.Namespace, g: Graph) -> frozenset[int]:
    if args.candidates is not None and args.leaves_only:
        raise GraphFormatError("--candidates and --leaves-only are exclusive")
    if args.candidates is not None:
        return frozenset(_parse_vertex_list(args.candidates))
    if args.leaves_only:
        return frozenset(g.leaves())
    return g.vertices


def _cmd_sweep(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    candidates = _resolve_candidates(args, g)
    rows = loss_mod.loss_size_sweep(
        g, candidates, bound=args.bound, max_size=args.max_size, budget=args.budget
    )
    if args.format == "jsonl":
        for row in rows:
            _emit_json(
                {
                    "kind": "sweep_row",
                    "bound": args.bound,
                    "size": row.size,
                    "n_subsets": row.n_subsets,
                    "n_violating": row.n_violating,
                    "any_violates": row.any_violates,
                    "all_violate": row.all_violate,
                    "witness": None
                    if row.witness is None
                    else {
                        "subset": list(row.witness.subset),
                        "expectation": None
                        if row.witness.expectation is None
                        else row.witness.expectation.as_dict(),
                        "bound": None
                        if row.witness.bound is None
                        else row.witness.bound.as_dict(),
                    },
                    "counterexample": None
                    if row.counterexample is None
                    else {"subset": list(row.counterexample.subset)},
                }
            )
        return EXIT_OK
    print(f"sweep over {len(candidates)} candidates, bound={args.bound}")
    print(f"{'size':>4} {'subsets':>8} {'violating':>10}  verdicts")
    for row in rows:
        verdict = (
            "all" if row.all_violate else ("some" if row.any_violates else "none")
        )
        extra = ""
        if row.witness is not None and row.witness.expectation is not None:
            extra = (
                f"  witness {list(row.witness.subset)}"
                f" expectation {render_quad(row.witness.expectation)}"
            )
        print(f"{row.size:>4} {row.n_subsets:>8} {row.n_violating:>10}  {verdict}{extra}")
    return EXIT_OK


# -- verify --------------------------------------------------------------------


def _iter_loss_sets(n: int, max_loss: int, cap: int):
    from itertools import combinations

    count = 0
    for k in range(0, max_loss + 1):
        if k >= n:
            return
        for combo in combinations(range(n), k):
            yield frozenset(combo)
            count += 1
            if count >= cap:
                return


def _verify_graph(g: Graph, max_loss: int, max_sets: int, tol: float):
    """Closed form vs oracle on one graph; returns (checks, max deviation)."""
    from .pauli import stabilizer

    checks = 0
    worst = 0.0
    full_ops = {r: bell_stabilizer_sum(g, r) for r in sorted(g.roots)}
    for lost in _iter_loss_sets(g.n, max_loss, max_sets):
        lossy = oracle.LossyState(g, lost)
        survivors = tuple(sorted(g.vertices - lost))
        sub, mapping = g.induced_subgraph(survivors)
        # per-generator expectations, both graphs
        for i in range(g.n):
            want = loss_mod.generator_expectation(g, i, frozenset(), lost)
            got = lossy.pauli_expectation(stabilizer(g, i))
            worst = max(worst, abs(want - got))
            checks += 1
            if i not in lost:
                want = loss_mod.generator_expectation(g, i, lost, lost)
                got = lossy.pauli_expectation(
                    stabilizer(sub, mapping[i]).embed(survivors, g.n)
                )
                worst = max(worst, abs(want - got))
                checks += 1
        # Bell level, both operators, every surviving anchor
        for r in sorted(g.roots - lost):
            want_value = float(loss_mod.expectation_after_loss(g, r, lost))
            got_full = lossy.bell_expectation(full_ops[r])
            worst = max(worst, abs(want_value - got_full))
            checks += 1
            if sub.n_max > 0:  # survivor operator is degenerate otherwise
                sub_op = bell_stabilizer_sum(sub, mapping[r], allow_non_root=True)
                got_sub = lossy.bell_expectation(sub_op, positions=survivors)
                worst = max(worst, abs(want_value - got_sub))
                checks += 1
    return checks, worst


def _cmd_verify(args: argparse.Namespace) -> int:
    tol = oracle.EXPECTATION_TOL
    checks = 0
    worst = 0.0
    rng = random.Random(args.seed)
    if args.replacement_invariance:
        n = args.n or 8
        for _ in range(args.random or 20):
            g = random_connected_graph(n, rng)
            for lost in _iter_loss_sets(g.n, args.max_loss, args.max_sets):
                if not lost:
                    continue
                for r in sorted(g.roots):
                    ok = oracle.replacement_invariance(
                        g, lost, bell_stabilizer_sum(g, r), tol=tol
                    )
                    checks += 1
                    if not ok:
                        worst = max(worst, tol * 10)
        print(f"replacement invariance: {checks} checks, all conventions agree: "
              f"{worst <= tol}")
        return EXIT_OK if worst <= tol else EXIT_VERIFY
    graphs: list[Graph] = []
    if args.random:
        if not args.n:
            raise GraphFormatError("--random needs --n")
        graphs += [random_connected_graph(args.n, rng) for _ in range(args.random)]
    if args.family or args.file:
        graphs.append(_load_graph(args))
    if not graphs:
        raise GraphFormatError("verify needs --random/--n, --family or --file")
    max_loss = args.loss_size if args.loss_size is not None else args.max_loss
    for g in graphs:
        if g.n > args.cap:
            raise SizeCapExceededError(f"n={g.n} exceeds oracle cap {args.cap}")
        c, w = _verify_graph(g, max_loss, args.max_sets, tol)
        checks += c
        worst = max(worst, w)
    passed = worst <= tol
    print(
        f"verified {checks} identities over {len(graphs)} graph(s); "
        f"max deviation {worst:.3e}; {'PASS' if passed else 'FAIL'}"
    )
    return EXIT_OK if passed else EXIT_VERIFY


# -- mixture ----------------------------------------------------------------


def _cmd_mixture(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    root = args.root if args.root is not None else min(g.roots)
    if args.dist:
        dist = parse_distribution(Path(args.dist).read_text())
        hypothesis = (
            frozenset(_parse_vertex_list(args.hypothesis))
            if args.hypothesis
            else None
        )
        value = loss_mod.mixture_expectation(g, dist, root, hypothesis)
        doc = {
            "kind": "mixture_value",
            "root": root,
            "hypothesis": sorted(hypothesis) if hypothesis else None,
            "expectation": value.as_dict(),
        }
        if args.format == "jsonl":
            _emit_json(doc)
        else:
            which = "survivor-subgraph" if hypothesis else "full-graph"
            print(f"{which} operator at root {root}: {render_quad(value)}")
        return EXIT_OK

    # parametric single-loss model over a p grid
    candidates = tuple(sorted(_resolve_candidates(args, g) - {root}))
    if not candidates:
        raise DistributionError("no loss candidates for the single-loss model")
    if args.hypothesis:
        hypothesis = frozenset(_parse_vertex_list(args.hypothesis))
    else:
        pendants = [v for v in g.neighborhood(root) if g.degree(v) == 1]
        if not pendants:
            raise DistributionError(
                "no pendant neighbor of the root; pass --hypothesis explicitly"
            )
        hypothesis = frozenset({min(pendants)})
    if args.grid_points < 1:
        raise ValueError(f"--grid-points must be at least 1, got {args.grid_points}")
    # grid runs from 0 up to but excluding p_max
    grid = [Fraction(args.p_max) * j / args.grid_points for j in range(args.grid_points)]
    curve = loss_mod.single_loss_mixture_curve(g, root, candidates, hypothesis, grid)
    if args.format == "jsonl":
        for row in curve.to_rows():
            _emit_json({"kind": "mixture_point", **row})
        _emit_json(
            {
                "kind": "mixture_summary",
                "root": curve.root,
                "hypothesis": list(curve.hypothesis),
                "candidates": list(curve.candidates),
                "full_bound": curve.full_bound.as_dict(),
                "induced_bound": curve.induced_bound.as_dict(),
                "crossover": None
                if curve.crossover is None
                else curve.crossover.as_dict(),
                "crossover_in_unit_interval": curve.crossover_in_unit_interval,
            }
        )
        return EXIT_OK
    print(
        f"single-loss mixture at root {curve.root}, hypothesis {list(curve.hypothesis)}, "
        f"{len(curve.candidates)} candidates"
    )
    print(f"{'p':>8}  {'full margin':>16}  {'survivor margin':>16}")
    for pt in curve.points:
        print(
            f"{str(pt.p):>8}  {_decimal(float(pt.full_margin)):>16}"
            f"  {_decimal(float(pt.induced_margin)):>16}"
        )
    if curve.crossover is None:
        print("margins are parallel; no crossover")
    else:
        print(
            f"margins meet at p = {render_quad(curve.crossover)}"
            f" (inside (0,1): {curve.crossover_in_unit_interval})"
        )
    return EXIT_OK


# -- family ----------------------------------------------------------------------


def _cmd_family(args: argparse.Namespace) -> int:
    if args.action == "list":
        for kind in KINDS:
            print(kind)
        return EXIT_OK
    if not args.family or not args.n:
        raise GraphFormatError("family emit needs --family and --n")
    g = generate(FamilySpec(args.family, args.n))
    if args.emit_format == "edges":
        print(f"n={g.n}")
        for i, j in g.edges:
            print(f"{i} {j}")
    else:
        print(g.dumps())
    return EXIT_OK


# -- wiring ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossbell",
        description="Exact loss robustness of graph-state Bell violations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="verdicts for one loss set")
    _add_input_options(p)
    p.add_argument("--lose", help="comma-separated lost vertices")
    p.add_argument("--lose-leaves-of-root", type=int, metavar="R",
                   help="lose pendant neighbors of vertex R")
    p.add_argument("--count", type=int, help="how many pendants to lose")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="per-size tolerance table")
    _add_input_options(p)
    p.add_argument("--candidates", help="comma-separated candidate vertices")
    p.add_argument("--leaves-only", action="store_true",
                   help="candidates are the degree-1 vertices")
    p.add_argument("--bound", choices=("full", "induced"), default="induced")
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--budget", type=int, default=loss_mod.SUBSET_BUDGET)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="closed form vs statevector oracle")
    _add_input_options(p)
    p.add_argument("--random", type=int, help="number of random connected graphs")
    p.add_argument("--max-loss", type=int, default=2)
    p.add_argument("--loss-size", type=int, default=None,
                   help="like --max-loss (family/file verification)")
    p.add_argument("--max-sets", type=int, default=500,
                   help="cap on loss sets per graph")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--cap", type=int, default=oracle.DEFAULT_STATE_CAP)
    p.add_argument("--replacement-invariance", action="store_true",
                   help="check |0>, |1> and mixed replacements agree")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("mixture", help="unknown-loss convex combinations")
    _add_input_options(p)
    p.add_argument("--root", type=int, default=None)
    p.add_argument("--dist", help="distribution file: 'num/den : i,j,k' lines")
    p.add_argument("--hypothesis", help="hypothesized loss set (vertex list)")
    p.add_argument("--candidates", help="single-loss candidates (vertex list)")
    p.add_argument("--leaves-only", action="store_true")
    p.add_argument("--grid-points", type=int, default=20)
    p.add_argument("--p-max", default="1/4", help="top of the p grid (fraction)")
    p.set_defaults(func=_cmd_mixture)

    p = sub.add_parser("family", help="list or emit built-in topologies")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("--family", choices=KINDS)
    p.add_argument("--n", type=int)
    p.add_argument("--emit-format", choices=("json", "edges"), default="json")
    p.set_defaults(func=_cmd_family)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (BudgetExceededError, SizeCapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        GraphFormatError, DistributionError, ValueError, IndexError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
