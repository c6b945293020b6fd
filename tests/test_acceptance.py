"""End-to-end acceptance checks.

Each test pins one release requirement at a fixed tolerance and prints a
single PASS line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  The heavyweight random sweep is built once and shared by the
closed-form-vs-oracle, per-generator, root-loss and replacement-invariance
checks.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from lossbell import (
    FamilySpec,
    Graph,
    LossDistribution,
    LossyState,
    MeasurementSetting,
    Quad,
    bell_stabilizer_sum,
    basis_block_weights,
    expectation_after_loss,
    generate,
    generic_bell_operator,
    graph_state,
    max_tolerable_loss,
    mixture_expectation,
    quantum_bound,
    random_connected_graph,
    root_loss_check,
    single_loss_mixture_curve,
    violation_report,
)
from lossbell.bell import stabilizer_sum_matrix
from lossbell.oracle import EXPECTATION_TOL
from lossbell.verify import IDENTITIES, VerifyResult, check_graph, loss_sets

SEED = 1729
N_RANDOM_GRAPHS = 200
MAX_LOSS = 3
LOSS_SETS_PER_GRAPH = 500


def _passline(label: str, detail: str) -> None:
    print(f"[acceptance] {label}: PASS ({detail})")


def _sweep_graphs() -> list[Graph]:
    rng = random.Random(SEED)
    graphs = [
        generate(FamilySpec(kind, n))
        for kind, n in (
            ("ring", 5),
            ("ring", 8),
            ("star", 6),
            ("star", 9),
            ("two-centered-ghz", 8),
            ("two-centered-ghz", 10),
            ("dense-center", 8),
            ("dense-center", 10),
        )
    ]
    while len(graphs) < N_RANDOM_GRAPHS + 8:
        n = rng.randint(4, 10)
        graphs.append(random_connected_graph(n, rng))
    return graphs


@dataclass
class SweepResults:
    graphs: list[Graph]
    elapsed: float
    bell_checks: int
    bell_max_dev: float
    generator_checks: int
    generator_max_dev: float
    replacement_checks: int
    replacement_max_spread: float


@pytest.fixture(scope="session")
def sweep() -> SweepResults:
    graphs = _sweep_graphs()
    result = VerifyResult()
    start = time.monotonic()
    for g in graphs:
        check_graph(
            g, loss_sets(g.n, MAX_LOSS, LOSS_SETS_PER_GRAPH), IDENTITIES, result
        )
    return SweepResults(
        graphs=graphs,
        elapsed=time.monotonic() - start,
        bell_checks=result.bell.checks,
        bell_max_dev=result.bell.worst,
        generator_checks=result.generator.checks,
        generator_max_dev=result.generator.worst,
        replacement_checks=result.replacement.checks,
        replacement_max_spread=result.replacement.worst,
    )


def test_lossless_families_reach_quantum_value():
    start = time.monotonic()
    checked = 0
    for kind in ("ring", "star", "two-centered-ghz", "dense-center"):
        for n in (6, 8, 10, 12):
            g = generate(FamilySpec(kind, n))
            expected = quantum_bound(g)
            lossy = LossyState(g, frozenset())
            for r in sorted(g.roots):
                op = bell_stabilizer_sum(g, r)
                assert op.coefficient_total() == expected
                assert expectation_after_loss(g, r, frozenset()) == expected
                assert abs(lossy.bell_expectation(op) - float(expected)) < EXPECTATION_TOL
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _passline(
        "01 lossless maximum",
        f"{checked} root operators across 4 families, oracle within 1e-9, {elapsed:.1f}s",
    )


def test_post_loss_value_matches_oracle_for_both_operators(sweep):
    assert len(sweep.graphs) >= 200
    assert sweep.bell_checks > 0
    assert sweep.bell_max_dev < EXPECTATION_TOL
    assert sweep.elapsed < 300.0
    _passline(
        "02 post-loss closed form vs oracle",
        f"{sweep.bell_checks} checks over {len(sweep.graphs)} graphs, "
        f"max dev {sweep.bell_max_dev:.2e}, {sweep.elapsed:.1f}s",
    )


def test_generator_case_split_matches_oracle(sweep):
    assert sweep.generator_checks > 0
    assert sweep.generator_max_dev < EXPECTATION_TOL
    _passline(
        "03 per-generator 0/1 split",
        f"{sweep.generator_checks} checks, max dev {sweep.generator_max_dev:.2e}",
    )


def test_losing_any_root_forbids_violation(sweep):
    checked = 0
    for g in sweep.graphs:
        if g.n > 8:
            continue
        for r_lost in sorted(g.roots):
            check = root_loss_check(g, r_lost)
            assert check.all_strict
            report = violation_report(g, frozenset({r_lost}))
            assert not report.violates("full")
            assert not report.violates("induced")
            checked += 1
    _passline("04 root loss forbids violation", f"{checked} strict chains")


def test_reference_tolerances_at_twelve_vertices():
    start = time.monotonic()
    tc = generate(FamilySpec("two-centered-ghz", 12))
    dc = generate(FamilySpec("dense-center", 12))

    same_hub_leaves = frozenset(range(2, 7))
    assert max_tolerable_loss(tc, same_hub_leaves, "best-case", "induced").k == 5

    dc_leaves = frozenset(dc.leaves())
    assert max_tolerable_loss(dc, dc_leaves, "best-case", "induced").k == 3
    assert max_tolerable_loss(dc, dc_leaves, "best-case", "full").k == 2

    assert expectation_after_loss(tc, 1, frozenset({2})) == Quad(4, 11)
    for k in range(0, 6):
        lost = frozenset(range(7, 7 + k))  # pendants of clique vertices 1..k
        assert expectation_after_loss(dc, 0, lost) == Quad(5 - k, 12 - k)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _passline(
        "05 twelve-vertex tolerance table",
        f"tolerances 5/3/2 and exact values reproduced, {elapsed:.1f}s",
    )


def test_ring_and_star_loss_sensitivity():
    for n in range(4, 9):
        ring = generate(FamilySpec("ring", n))
        for v in range(n):
            report = violation_report(ring, frozenset({v}))
            assert not report.violates("full") and not report.violates("induced")

        star = generate(FamilySpec("star", n))
        assert expectation_after_loss(star, 0, frozenset({0})) == Quad(0)
        lossy = LossyState(star, frozenset({0}))
        got = lossy.bell_expectation(bell_stabilizer_sum(star, 0))
        assert abs(got) < EXPECTATION_TOL
        for leaf in range(1, n):
            value = expectation_after_loss(star, 0, frozenset({leaf}))
            assert value == Quad(0, n - 2)
            report = violation_report(star, frozenset({leaf}))
            assert not report.violates("full") and not report.violates("induced")
    _passline(
        "06 ring/star sensitivity",
        "no single-loss violation for n=4..8; hub loss zeroes the operator",
    )


def test_generic_operator_equals_stabilizer_sum_under_ideal_settings():
    rng = random.Random(SEED + 7)
    worst = 0.0
    for _ in range(50):
        g = random_connected_graph(rng.randint(2, 8), rng)
        for r in sorted(g.roots):
            dense = generic_bell_operator(g, r, MeasurementSetting.ideal(g, r))
            reference = stabilizer_sum_matrix(bell_stabilizer_sum(g, r))
            worst = max(worst, float(np.max(np.abs(dense - reference))))
    assert worst < 1e-12
    _passline(
        "07 generic operator vs stabilizer sum",
        f"50 random graphs, all roots, entrywise max dev {worst:.2e}",
    )


def test_replacement_conventions_agree(sweep):
    assert sweep.replacement_checks > 0
    assert sweep.replacement_max_spread < EXPECTATION_TOL
    _passline(
        "08 replacement invariance",
        f"{sweep.replacement_checks} operator evaluations, "
        f"max spread {sweep.replacement_max_spread:.2e}",
    )


def test_unknown_loss_mixture_behavior():
    dc = generate(FamilySpec("dense-center", 12))
    pendants = dc.leaves()
    grid = [Fraction(j, 80) for j in range(20)]  # 0 <= p < 1/4
    curve = single_loss_mixture_curve(dc, 0, pendants, frozenset({6}), grid)

    margins = [pt.full_margin for pt in curve.points]
    assert all(m.sign() > 0 for m in margins)
    assert all(margins[i] > margins[i + 1] for i in range(len(margins) - 1))

    at_zero = mixture_expectation(
        dc, LossDistribution(((Fraction(1), frozenset()),)), 0, frozenset({6})
    )
    sub, _ = dc.induced_subgraph(dc.vertices - {6})
    assert at_zero < quantum_bound(sub)

    assert curve.crossover is not None
    detail = (
        f"margins positive and decreasing on 20-point grid; "
        f"survivor-operator value at p=0 is {at_zero} < subgraph quantum maximum; "
        f"margins meet at p = {curve.crossover} "
        f"(inside (0,1): {curve.crossover_in_unit_interval})"
    )
    _passline("09 unknown-loss mixtures", detail)


def test_amplitude_blocks_carry_equal_weight():
    rng = random.Random(SEED + 13)
    checked = 0
    for _ in range(40):
        g = random_connected_graph(rng.randint(2, 8), rng)
        state = graph_state(g)
        for k in (1, 2):
            if k >= g.n:
                continue
            lost = frozenset(rng.sample(range(g.n), k))
            weights = basis_block_weights(state, lost)
            assert np.max(np.abs(weights - weights[0])) < 1e-10
            checked += 1
    _passline("10 amplitude-block equality", f"{checked} random loss sets")
