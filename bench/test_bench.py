"""Tests of the benchmark itself, on its smoke-sized inputs.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.import_program()

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from lossbell import loss as loss_mod  # noqa: E402
from lossbell import random_connected_graph  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", "_per_set", ".hits", ".misses", ".bytes_computed", "_ratio")


def smoke_ops(workload: str, tmp_path: Path, seed: int = 7):
    ops = workloads.build(workload, seed, tmp_path, smoke=True)
    for op in ops:
        assert checks.prepare(op) == []
    return ops


def outcome(op):
    _, out = run.execute(op)
    return out


def first(ops, kind):
    return next(op for op in ops if op.kind == kind)


def rewrite_jsonl(text: str, edit) -> str:
    docs = [json.loads(line) for line in text.splitlines()]
    edit(docs)
    return "".join(json.dumps(doc) + "\n" for doc in docs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct_and_fails_only_the_named_operation(workload):
    result, info = run.run_workload(workload, 11, 0, trace=False, smoke=True)
    assert result["correct"], info["errors"]
    expected_failures = 1 if workload == "query-mixture" else 0
    assert result["failed"] == expected_failures * info["rounds"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 3, tmp_path / "a")
        b = workloads.build(workload, 3, tmp_path / "b")
        c = workloads.build(workload, 4, tmp_path / "c")
        strip = lambda ops: [(op.kind, op.loss_sets, op.graph.edges if op.graph else None)
                             for op in ops]
        assert strip(a) == strip(b)
        assert len(a) == len(c) >= 100
        assert sum(op.expect_error for op in a) == (workload == "query-mixture")


def test_checks_catch_a_wrong_sweep_verdict_and_count(tmp_path):
    op = first(smoke_ops("sweep-exhaustive", tmp_path), "sweep")
    out = outcome(op)
    assert checks.check(op, out) == []

    def more_violating(docs):
        docs[2]["n_violating"] += 1

    def more_subsets(docs):
        docs[1]["n_subsets"] += 1

    def wrong_witness(docs):
        docs[1]["witness"]["subset"] = docs[1]["counterexample"]["subset"]

    for edit in (more_violating, more_subsets, wrong_witness):
        out.stdout = rewrite_jsonl(outcome(op).stdout, edit)
        assert checks.check(op, out), edit.__name__


def test_checks_catch_a_wrong_analyze_verdict(tmp_path):
    op = first(smoke_ops("query-mixture", tmp_path), "analyze")
    out = outcome(op)
    assert checks.check(op, out) == []

    def flip(docs):
        docs[0]["roots"][0]["violates_induced"] = not docs[0]["roots"][0]["violates_induced"]

    out.stdout = rewrite_jsonl(out.stdout, flip)
    assert checks.check(op, out)


def test_checks_catch_a_wrong_identity_count(tmp_path):
    op = first(smoke_ops("verify-oracle", tmp_path), "verify")
    out = outcome(op)
    assert checks.check(op, out) == []
    out.stdout = out.stdout.replace(f"verified {op.expected} ", f"verified {op.expected + 1} ")
    assert checks.check(op, out)


def test_checks_catch_wrong_mixture_values(tmp_path):
    ops = smoke_ops("query-mixture", tmp_path)
    for kind in ("dist", "grid"):
        op = first(ops, kind)
        out = outcome(op)
        assert checks.check(op, out) == []

        def nudge(docs):
            if kind == "dist":
                value = docs[0]["expectation"]
            else:  # the last grid point
                value = docs[-2]["induced_expectation"]
            value["a"] = str(Fraction(value["a"]) + Fraction(1, 97))

        out.stdout = rewrite_jsonl(out.stdout, nudge)
        assert checks.check(op, out), kind


def test_checks_catch_wrong_library_results(tmp_path):
    ops = smoke_ops("sweep-exhaustive", tmp_path)
    tol = first(ops, "tolerance")
    out = outcome(tol)
    assert checks.check(tol, out) == []
    right = out.result
    out.result = dataclasses.replace(right, k=right.k + 1)
    assert checks.check(tol, out)
    out.result = dataclasses.replace(right, rows=right.rows[:-1])
    assert checks.check(tol, out)
    crit = first(ops, "critical")
    out = outcome(crit)
    assert checks.check(crit, out) == []
    out.result = out.result[1:]
    assert checks.check(crit, out)


def test_named_failing_operation_passes_once_it_ends_in_one_error_line(tmp_path):
    op = first(smoke_ops("query-mixture", tmp_path), "usage-error")
    assert checks.failed(op, outcome(op))  # the IndexError escapes today
    fixed = checks.Outcome(exit_code=1, stderr="error: vertex 99 out of range\n")
    assert not checks.failed(op, fixed)
    assert checks.failed(op, checks.Outcome(exit_code=0))


def test_reference_agrees_with_the_library_on_random_graphs():
    rng = random.Random(5)
    for _ in range(30):
        g = random_connected_graph(rng.randint(3, 9), rng)
        rg = ref.RefGraph(g.n, g.edges)
        loss = frozenset(rng.sample(range(g.n), rng.randint(0, g.n - 1)))
        want = loss_mod.violation_report(g, loss)
        got = ref.report(rg, loss)
        assert [(r.root, r.scope) for r in want.records] == [
            (r.root, r.scope) for r in got.records]
        for bound in ("full", "induced"):
            assert want.violates(bound) == got.violates(bound)


def test_times_are_scaled_by_the_calibration_passes_around_them():
    ref_s = run.CALIBRATION_REFERENCE_S
    # passes at half speed halve every time; a slow pass weighs on the
    # operations within two passes of it and not on the first
    assert run.Round(times=[2.0], calibration=[2 * ref_s] * 2).reference_times() == [1.0]
    rnd = run.Round(times=[1.0] * 3, calibration=[ref_s] * 3 + [2 * ref_s])
    assert rnd.reference_times() == pytest.approx([1.0, 0.8, 0.8])


def test_quantile_estimates():
    assert run.quantile([0.25] * 7, 0.9) == pytest.approx(0.25)
    evenly = [float(i) for i in range(101)]
    assert run.quantile(evenly, 0.5) == pytest.approx(50.0)
    assert run.quantile(evenly, 0.9) == pytest.approx(90.0, abs=0.5)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    names = [m["name"] for m in SPEC["per_layer"]]
    counts = [n for n in names if n.endswith(COUNT_SUFFIXES)]
    first_run, second_run = (run.run_workload(workload, 11, 0, trace=True, smoke=True)[0]
                             for _ in range(2))
    assert first_run["correct"] and set(first_run["metrics"]) == set(names)
    assert [first_run["metrics"][n] for n in counts] == [
        second_run["metrics"][n] for n in counts]
    assert not hasattr(loss_mod.violation_report, "__wrapped__")  # uninstalled


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "query-mixture",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
