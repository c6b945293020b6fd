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
from .bell import require_root
from .errors import (
    BudgetExceededError,
    DistributionError,
    GraphFormatError,
    SizeCapExceededError,
)
from .families import KINDS, FamilySpec, generate
from .graphs import (
    DEFAULT_STATE_CAP,
    MAX_STATE_CAP,
    STATE_BYTE_BUDGET,
    Graph,
    random_connected_graph,
)
from .quad import Quad

SCHEMA_VERSION = 1
DEFAULT_SEED = 1729

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3

# `mixture --grid-points` above this is a size-cap error: the grid, its points
# and their rows are all held in memory.  10,000 points took 1.6 s and 47 MB
# peak RSS, 100,000 took 12.9 s and 290 MB (2-core VM, Python 3.11).
MAX_GRID_POINTS = 10_000


def _decimal(value: float) -> str:
    return format(value, ".12g")


def render_quad(q: Quad | None) -> str:
    if q is None:
        return "undefined"
    return f"{q} ~= {_decimal(float(q))}"


def _emit_json(doc: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    print(json.dumps(doc))


def _graph_or_spec(args: argparse.Namespace) -> Graph | FamilySpec:
    if getattr(args, "file", None):
        return Graph.parse(Path(args.file).read_text())
    if getattr(args, "family", None):
        if args.n is None:
            raise GraphFormatError("--family needs --n")
        return FamilySpec(args.family, args.n)
    raise GraphFormatError("no input graph: pass --file or --family/--n")


def _load_graph(args: argparse.Namespace) -> Graph:
    named = _graph_or_spec(args)
    return generate(named) if isinstance(named, FamilySpec) else named


def _add_input_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--file", help="graph document (JSON or edge-list form)")
    sub.add_argument("--family", choices=KINDS, help="built-in topology")
    sub.add_argument("--n", type=int, help="vertex count for --family")


def _add_format_option(sub: argparse.ArgumentParser) -> None:
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
    if args.count is not None and args.lose_leaves_of_root is None:
        raise GraphFormatError("--count needs --lose-leaves-of-root")
    if args.lose is not None:
        return frozenset(_parse_vertex_list(args.lose))
    if args.lose_leaves_of_root is not None:
        hub = args.lose_leaves_of_root
        if args.count is not None and args.count < 0:
            raise ValueError(f"--count must be at least 0, got {args.count}")
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


def _cmd_verify(args: argparse.Namespace) -> int:
    # the only command that needs the oracle, and so numpy
    from . import oracle
    from .verify import VerifyResult, check_graph, loss_set_count, loss_sets

    if args.cap > MAX_STATE_CAP:
        raise SizeCapExceededError(
            f"--cap {args.cap} exceeds {MAX_STATE_CAP}: a statevector of more "
            f"qubits and its index vector take over {STATE_BYTE_BUDGET >> 20} MiB"
        )
    rng = random.Random(args.seed)
    count = args.random or 0
    if count < 0:
        raise ValueError(f"--random must be at least 0, got {count}")
    if count:
        if not args.n:
            raise GraphFormatError("--random needs --n")
        if args.n > args.cap:
            raise SizeCapExceededError(f"n={args.n} exceeds statevector cap {args.cap}")
        Graph(args.n)  # an --n below 1 is refused here, as drawing would refuse it
    named = _graph_or_spec(args) if args.family or args.file else None
    graphs = count + bool(named)
    if not graphs:
        raise GraphFormatError("verify needs --random/--n, --family or --file")
    if args.max_sets < 1:
        raise ValueError(f"--max-sets must be at least 1, got {args.max_sets}")
    flag, max_loss = (("--loss-size", args.loss_size) if args.loss_size is not None
                      else ("--max-loss", args.max_loss))
    if max_loss < 0:
        raise ValueError(f"{flag} must be at least 0, got {max_loss}")
    if named and named.n > args.cap:  # checked, like --random's --n, before any build
        raise SizeCapExceededError(f"n={named.n} exceeds statevector cap {args.cap}")
    identities = ("replacement",) if args.replacement_invariance else (
        "generator/full", "generator/survivor", "bell/full", "bell/survivor")
    result, total_sets = VerifyResult(), 0
    for i in range(graphs):
        g = (random_connected_graph(args.n, rng) if i < count
             else generate(named) if isinstance(named, FamilySpec) else named)
        check_graph(g, loss_sets(g.n, max_loss, args.max_sets), identities, result)
        total_sets += loss_set_count(g.n, max_loss)
    tally = result.replacement if args.replacement_invariance else max(
        result.generator, result.bell, key=lambda t: t.worst)
    passed = tally.worst <= oracle.EXPECTATION_TOL
    if args.replacement_invariance:
        print(f"replacement invariance: {tally.checks} checks, all conventions agree: "
              f"{passed}; max spread {tally.worst:.3e}")
    else:
        print(f"verified {result.generator.checks + result.bell.checks} identities "
              f"over {graphs} graph(s); max deviation {tally.worst:.3e}; "
              f"{'PASS' if passed else 'FAIL'}")
    print(f"checked {result.loss_sets} of {total_sets} loss sets")
    if tally.where is not None:
        kind, fingerprint, loss, vertex = tally.where
        print(f"worst at {kind}: graph {fingerprint}, loss {list(loss)}, vertex {vertex}")
    return EXIT_OK if passed else EXIT_VERIFY


# -- mixture ----------------------------------------------------------------


def _cmd_mixture(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    root = args.root if args.root is not None else min(g.roots)
    if args.dist:
        grid_options = [flag for flag, given in (
            ("--grid-points", args.grid_points is not None),
            ("--p-max", args.p_max is not None),
            ("--candidates", args.candidates is not None),
            ("--leaves-only", args.leaves_only),
        ) if given]
        if grid_options:
            raise GraphFormatError(
                f"--dist takes no grid options: {', '.join(grid_options)}"
            )
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
    require_root(g, root)
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
    points = 20 if args.grid_points is None else args.grid_points
    if points < 1:
        raise ValueError(f"--grid-points must be at least 1, got {points}")
    if points > MAX_GRID_POINTS:
        raise SizeCapExceededError(
            f"--grid-points {points} exceeds the cap {MAX_GRID_POINTS}"
        )
    p_max_text = "1/4" if args.p_max is None else args.p_max
    try:
        p_max = Fraction(p_max_text)
    except ZeroDivisionError as exc:
        raise ValueError(f"bad --p-max {p_max_text!r}: zero denominator") from exc
    # grid runs from 0 up to but excluding p_max
    grid = [p_max * j / points for j in range(points)]
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
    _add_format_option(p)
    p.add_argument("--lose", help="comma-separated lost vertices")
    p.add_argument("--lose-leaves-of-root", type=int, metavar="R",
                   help="lose pendant neighbors of vertex R")
    p.add_argument("--count", type=int, help="how many pendants to lose")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="per-size tolerance table")
    _add_input_options(p)
    _add_format_option(p)
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
                   help="overrides --max-loss")
    p.add_argument("--max-sets", type=int, default=500,
                   help="cap on loss sets per graph")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("--replacement-invariance", action="store_true",
                   help="check |0>, |1> and mixed replacements agree")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("mixture", help="unknown-loss convex combinations")
    _add_input_options(p)
    _add_format_option(p)
    p.add_argument("--root", type=int, default=None)
    p.add_argument("--dist", help="distribution file: 'num/den : i,j,k' lines")
    p.add_argument("--hypothesis", help="hypothesized loss set (vertex list)")
    # the grid options; --dist takes none of them
    p.add_argument("--candidates", help="single-loss candidates (vertex list)")
    p.add_argument("--leaves-only", action="store_true")
    p.add_argument("--grid-points", type=int,
                   help=f"points on the p grid (default 20, at most {MAX_GRID_POINTS})")
    p.add_argument("--p-max", help="top of the p grid (fraction, default 1/4)")
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
