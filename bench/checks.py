"""Output checks for every benchmark operation.

``prepare`` computes an operation's expected result with the reference
checker once, before anything is timed, and spot-checks the reference
against the statevector oracle on a seeded sample of sweep subsets.
``check`` then compares each run's output with that result and with
properties that need no stored output.  Both return a list of error strings;
an empty list means the output is right.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import reference as ref
from lossbell import bell, oracle

ORACLE_MAX_N = 14
ORACLE_TOL = 1e-9


@dataclass
class Outcome:
    exit_code: int | None = None
    stdout: str = ""
    stderr: str = ""
    result: object = None
    error: BaseException | None = None


def failed(op, out: Outcome) -> bool:
    """True when the operation did not complete the way it should end."""
    if out.error is not None:
        return True
    if op.expect_error:
        lines = [line for line in out.stderr.splitlines() if line.strip()]
        return not (out.exit_code == 1 and len(lines) == 1
                    and lines[0].startswith("error:"))
    return op.argv is not None and out.exit_code != 0


_ref_graphs: dict = {}
_ref_sweeps: dict = {}


def ref_graph(g) -> ref.RefGraph:
    key = (g.n, g.edges)
    if key not in _ref_graphs:
        _ref_graphs[key] = ref.RefGraph(g.n, g.edges)
    return _ref_graphs[key]


def _ref_sweep(g, candidates, max_size):
    key = (g.n, g.edges, candidates, max_size)
    if key not in _ref_sweeps:
        _ref_sweeps[key] = ref.sweep(ref_graph(g), candidates, max_size)
    return _ref_sweeps[key]


def _quad(doc) -> tuple[Fraction, Fraction] | None:
    if doc is None:
        return None
    return (Fraction(doc["a"]), Fraction(doc["b"]))


def _quad_obj(value) -> tuple[Fraction, Fraction] | None:
    if value is None:
        return None
    return (Fraction(value.a), Fraction(value.b))


def _int_quad(value: int | None):
    return None if value is None else ref.q(value)


# -- preparation -------------------------------------------------------------------


def prepare(op) -> list[str]:
    """Fill ``op.expected`` from the reference; return oracle disagreements."""
    g = op.graph
    p = op.params
    if op.kind == "sweep":
        rows = _ref_sweep(g, p["candidates"], p["max_size"])[p["bound"]]
        op.expected = rows
        return _oracle_spot_check(op, rows)
    if op.kind == "tolerance":
        rows = _ref_sweep(g, p["candidates"], None)[p["bound"]]
        op.expected = (rows, ref.max_tolerable(rows, p["semantics"]))
        return _oracle_spot_check(op, rows)
    if op.kind == "critical":
        op.expected = ref.critical_sets(ref_graph(g), p["max_size"], p["bound"])
    elif op.kind == "verify":
        rg = ref_graph(g)
        op.expected = sum(ref.identity_count(rg, s) for s in p["loss_sets"])
    elif op.kind == "invariance":
        op.expected = len(p["loss_sets"]) * len(ref_graph(g).roots)
    elif op.kind == "analyze":
        op.expected = ref.report(ref_graph(g), p["loss"])
    elif op.kind == "dist":
        op.expected = ref.mixture_value(ref_graph(g), p["entries"], p["root"],
                                        p["hypothesis"])
    elif op.kind == "grid":
        op.expected = ref.mixture_curve(ref_graph(g), p["root"], p["candidates"],
                                        p["hypothesis"], p["grid"])
    return []


def _oracle_spot_check(op, rows) -> list[str]:
    """Reference values against the statevector oracle on a seeded sample:
    each row's witness and counterexample plus two random subsets."""
    g = op.graph
    if g.n > ORACLE_MAX_N:
        return []
    rg = ref_graph(g)
    rng = random.Random(op.label)
    cands = op.params["candidates"]
    sample = {s for row in rows for s in (row.witness, row.counterexample)
              if s is not None}
    for _ in range(2):
        k = rng.randint(0, max(0, min(len(cands), g.n - 1)))
        sample.add(tuple(sorted(rng.sample(cands, min(k, len(cands))))))
    errors = []
    for subset in sorted(sample):
        lossy = oracle.LossyState(g, frozenset(subset))
        for rec in ref.report(rg, subset).records:
            if rec.scope != "both":
                continue
            got = lossy.bell_expectation(bell.bell_stabilizer_sum(g, rec.root))
            want = ref.q_float(rec.value)
            if abs(got - want) > ORACLE_TOL:
                errors.append(f"{op.label}: oracle {got!r} != reference {want!r} "
                              f"at root {rec.root}, loss {subset}")
    return errors


# -- checks ----------------------------------------------------------------------


def check(op, out: Outcome) -> list[str]:
    return CHECKS[op.kind](op, out)


def _jsonl(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _check_sweep(op, out: Outcome) -> list[str]:
    rg = ref_graph(op.graph)
    bound = op.params["bound"]
    m = len(op.params["candidates"])
    errors = []
    docs = _jsonl(out.stdout)
    if len(docs) != len(op.expected):
        return [f"{len(docs)} sweep rows, expected {len(op.expected)}"]
    for doc, exp in zip(docs, op.expected):
        size = doc["size"]
        if doc["kind"] != "sweep_row" or doc["bound"] != bound or size != exp.size:
            errors.append(f"row {exp.size}: wrong kind, bound or size")
            continue
        if doc["n_subsets"] != comb(m, size):
            errors.append(f"size {size}: {doc['n_subsets']} subsets != C({m},{size})")
        if doc["n_violating"] != exp.n_violating:
            errors.append(f"size {size}: {doc['n_violating']} violating, "
                          f"reference {exp.n_violating}")
        if doc["any_violates"] != (doc["n_violating"] > 0) or doc["all_violate"] != (
            doc["n_violating"] == doc["n_subsets"]
        ):
            errors.append(f"size {size}: any/all flags disagree with the counts")
        wit = doc["witness"]
        wit_subset = None if wit is None else tuple(wit["subset"])
        if wit_subset != exp.witness:
            errors.append(f"size {size}: witness {wit_subset}, reference {exp.witness}")
        elif wit is not None:
            if _quad(wit["expectation"]) != exp.witness_value:
                errors.append(f"size {size}: witness expectation differs")
            if _quad(wit["bound"]) != _int_quad(exp.witness_bound):
                errors.append(f"size {size}: witness bound differs")
            if not ref.report(rg, wit_subset).violates(bound):
                errors.append(f"size {size}: witness {wit_subset} does not violate")
        if size == 0 and (wit is None or _quad(wit["expectation"]) != rg.quantum):
            errors.append("empty loss set does not reach the quantum bound")
        ce = doc["counterexample"]
        ce_subset = None if ce is None else tuple(ce["subset"])
        if ce_subset != exp.counterexample:
            errors.append(f"size {size}: counterexample {ce_subset}, "
                          f"reference {exp.counterexample}")
        elif ce_subset is not None and ref.report(rg, ce_subset).violates(bound):
            errors.append(f"size {size}: counterexample {ce_subset} violates")
    return errors


def _check_tolerance(op, out: Outcome) -> list[str]:
    rows, (k, witness, breaking) = op.expected
    res = out.result
    errors = []
    if res.k != k:
        errors.append(f"k={res.k}, reference {k}")
    got_witness = None if res.witness is None else tuple(res.witness.subset)
    if got_witness != witness:
        errors.append(f"witness {got_witness}, reference {witness}")
    elif witness is not None and _quad_obj(res.witness.expectation) != rows[k].witness_value:
        errors.append("witness expectation differs")
    got_breaking = None if res.breaking_set is None else tuple(res.breaking_set.subset)
    if got_breaking != breaking:
        errors.append(f"breaking set {got_breaking}, reference {breaking}")
    got_counts = [(r.size, r.n_subsets, r.n_violating) for r in res.rows]
    want_counts = [(r.size, r.n_subsets, r.n_violating) for r in rows]
    if got_counts != want_counts:
        errors.append(f"per-size counts {got_counts}, reference {want_counts}")
    return errors


def _check_critical(op, out: Outcome) -> list[str]:
    got = [tuple(sorted(s)) for s in out.result]
    if got != op.expected:
        return [f"critical sets {got}, reference {op.expected}"]
    return []


_VERIFIED = re.compile(r"verified (\d+) identities over (\d+) graph")
_INVARIANT = re.compile(r"replacement invariance: (\d+) checks, all conventions agree: (\w+)")


def _check_verify(op, out: Outcome) -> list[str]:
    m = _VERIFIED.search(out.stdout)
    if m is None or "PASS" not in out.stdout:
        return [f"verify did not report PASS: {out.stdout.strip()!r}"]
    checks, graph_count = int(m.group(1)), int(m.group(2))
    if (checks, graph_count) != (op.expected, 1):
        return [f"{checks} identities over {graph_count} graph(s), "
                f"expected {op.expected} over 1"]
    return []


def _check_invariance(op, out: Outcome) -> list[str]:
    m = _INVARIANT.search(out.stdout)
    if m is None or m.group(2) != "True":
        return [f"replacement conventions disagree: {out.stdout.strip()!r}"]
    if int(m.group(1)) != op.expected:
        return [f"{m.group(1)} invariance checks, expected {op.expected}"]
    return []


def _check_analyze(op, out: Outcome) -> list[str]:
    rg = ref_graph(op.graph)
    exp = op.expected
    (doc,) = _jsonl(out.stdout)
    errors = []
    want = {
        "kind": "loss_report",
        "n": rg.n,
        "n_max": rg.n_max,
        "loss": list(exp.loss),
        "any_root_lost": exp.any_root_lost,
        "full": ref.q(rg.full_bound),
        "quantum": rg.quantum,
        "induced": _int_quad(exp.induced_bound),
        "induced_n": exp.induced_n,
        "induced_n_max": exp.induced_n_max,
    }
    got = {
        "kind": doc["kind"],
        "n": doc["graph"]["n"],
        "n_max": doc["graph"]["n_max"],
        "loss": doc["loss"],
        "any_root_lost": doc["any_root_lost"],
        "full": _quad(doc["bounds"]["full"]),
        "quantum": _quad(doc["bounds"]["quantum"]),
        "induced": _quad(doc["bounds"]["induced"]),
        "induced_n": doc["induced"]["n"],
        "induced_n_max": doc["induced"]["n_max"],
    }
    errors += [f"{key}: {got[key]!r}, reference {want[key]!r}"
               for key in want if got[key] != want[key]]
    records = [
        (r["root"], r["scope"], _quad(r["expectation"]), r["violates_full"],
         r["violates_induced"], r["w_size"], r["t_size"], r["root_hit"],
         r["anchor_is_induced_root"])
        for r in doc["roots"]
    ]
    want_records = [
        (r.root, r.scope, r.value, r.violates_full, r.violates_induced, r.w, r.t,
         r.root_hit, r.anchor_is_induced_root)
        for r in exp.records
    ]
    if records != want_records:
        errors.append(f"root records {records}, reference {want_records}")
    if not exp.loss and any(rec[2] != rg.quantum for rec in records):
        errors.append("a root misses the quantum bound with no loss")
    return errors


def _check_dist(op, out: Outcome) -> list[str]:
    (doc,) = _jsonl(out.stdout)
    got = (doc["kind"], doc["root"], _quad(doc["expectation"]))
    want = ("mixture_value", op.params["root"], op.expected)
    return [] if got == want else [f"mixture value {got}, reference {want}"]


def _affine_errors(points, key: str) -> list[str]:
    """Values of an affine function of p satisfy, for every j,
    (v_j - v_0) * (p_1 - p_0) == (v_1 - v_0) * (p_j - p_0)."""
    (p0, v0), (p1, v1) = points[0], points[1]
    for pj, vj in points[2:]:
        lhs = ref.q_mul(ref.q_sub(vj, v0), ref.q(p1 - p0))
        rhs = ref.q_mul(ref.q_sub(v1, v0), ref.q(pj - p0))
        if lhs != rhs:
            return [f"{key} is not affine in p at p={pj}"]
    return []


def _margin_at(points, c):
    """Affine interpolation through the first two points, evaluated at c."""
    (p0, v0), (p1, v1) = points[0], points[1]
    slope = ref.q_mul(ref.q_sub(v1, v0), ref.q(1 / (p1 - p0)))
    return ref.q_add(v0, ref.q_mul(slope, ref.q_sub(c, ref.q(p0))))


def _check_grid(op, out: Outcome) -> list[str]:
    exp = op.expected
    docs = _jsonl(out.stdout)
    *points, summary = docs
    errors = []
    got_points = [
        (Fraction(d["p"]), _quad(d["full_expectation"]), _quad(d["full_margin"]),
         _quad(d["induced_expectation"]), _quad(d["induced_margin"]))
        for d in points
    ]
    if got_points != list(exp.points):
        errors.append("mixture points differ from the reference")
    if len(got_points) >= 2:
        for col, key in ((1, "full_expectation"), (3, "induced_expectation")):
            errors += _affine_errors([(pt[0], pt[col]) for pt in got_points], key)
    got_summary = (
        summary["kind"], summary["root"], tuple(summary["hypothesis"]),
        tuple(summary["candidates"]), _quad(summary["full_bound"]),
        _quad(summary["induced_bound"]), _quad(summary["crossover"]),
        summary["crossover_in_unit_interval"],
    )
    want_summary = (
        "mixture_summary", op.params["root"], op.params["hypothesis"],
        op.params["candidates"], ref.q(exp.full_bound), ref.q(exp.induced_bound),
        exp.crossover, exp.crossover_in_unit_interval,
    )
    if got_summary != want_summary:
        errors.append(f"mixture summary {got_summary}, reference {want_summary}")
    crossover = _quad(summary["crossover"])
    if crossover is not None and len(got_points) >= 2:
        full = _margin_at([(pt[0], pt[2]) for pt in got_points], crossover)
        induced = _margin_at([(pt[0], pt[4]) for pt in got_points], crossover)
        if full != induced:
            errors.append("the two margins differ at the reported crossover")
    return errors


def _check_usage_error(op, out: Outcome) -> list[str]:
    return [] if not out.stdout else ["a usage error also printed a report"]


CHECKS = {
    "sweep": _check_sweep,
    "tolerance": _check_tolerance,
    "critical": _check_critical,
    "verify": _check_verify,
    "invariance": _check_invariance,
    "analyze": _check_analyze,
    "dist": _check_dist,
    "grid": _check_grid,
    "usage-error": _check_usage_error,
}
