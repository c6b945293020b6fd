from __future__ import annotations

import random
from itertools import combinations

import pytest

import lossbell.verify as verify_mod
from conftest import embed
from lossbell import (
    FamilySpec, LossyState, SizeCapExceededError, bell_stabilizer_sum, generate,
    random_connected_graph, stabilizer,
)
from lossbell.graphs import MAX_STATE_CAP
from lossbell.oracle import REPLACEMENTS
from lossbell.verify import (
    IDENTITIES, VerifyResult, check_graph, loss_set_count, loss_sets,
)


def _reference_check_graph(g, sets, identities):
    """Reference: `check_graph` as it was before survivor operators were built
    on the full register, with a survivor `Graph` per loss set, embedded
    subgraph generators and one Bell sum per operator and convention."""
    on = set(identities)
    result = VerifyResult()
    full_ops = {r: bell_stabilizer_sum(g, r) for r in sorted(g.roots)}
    intact = LossyState(g, frozenset())

    def bell_value(lossy, op, survivors=None, replacement="zero"):
        total = 0.0
        for _, coeff, pauli in op.terms:
            if survivors is not None:
                pauli = embed(pauli, survivors, g.n)
            total += float(coeff) * lossy.pauli_expectation(pauli, replacement)
        return total

    for lost in sets:
        result.loss_sets += 1
        lossy = intact.with_loss(lost)
        survivors = tuple(sorted(g.vertices - lost))
        sub, mapping = g.induced_subgraph(survivors)

        def record(kind, vertex, want, got):
            tally = getattr(result, kind.partition("/")[0])
            tally.checks += 1
            if abs(want - got) > tally.worst:
                tally.worst = abs(want - got)
                tally.where = (kind, g.fingerprint, tuple(sorted(lost)), vertex)

        if "generator/full" in on:
            for i in range(g.n):
                want = verify_mod.generator_expectation(g, i, frozenset(), lost)
                record("generator/full", i, want, lossy.pauli_expectation(stabilizer(g, i)))
        if on & {"generator/survivor", "generator/intact"}:
            for i in survivors:
                gen = embed(stabilizer(sub, mapping[i]), survivors, g.n)
                if "generator/survivor" in on:
                    want = verify_mod.generator_expectation(g, i, lost, lost)
                    record("generator/survivor", i, want, lossy.pauli_expectation(gen))
                if "generator/intact" in on and lost:
                    want = verify_mod.generator_expectation(g, i, lost, frozenset())
                    record("generator/intact", i, want, intact.pauli_expectation(gen))
        for r, op in full_ops.items():
            if on & {"bell/full", "bell/survivor"} and r not in lost:
                want = float(verify_mod.expectation_after_loss(g, r, lost))
                if "bell/full" in on:
                    record("bell/full", r, want, bell_value(lossy, op))
                if "bell/survivor" in on and sub.n_max > 0:
                    sub_op = bell_stabilizer_sum(sub, mapping[r], lost=frozenset())
                    record("bell/survivor", r, want, bell_value(lossy, sub_op, survivors))
            if "replacement" in on and lost:
                values = [bell_value(lossy, op, replacement=x) for x in REPLACEMENTS]
                record("replacement", r, max(values), min(values))
    return result


def _graphs():
    rng = random.Random(606)
    out = [random_connected_graph(rng.randint(3, 9), rng, rng.choice((0.15, 0.4)))
           for _ in range(10)]
    return out + [generate(FamilySpec(kind, 8)) for kind in
                  ("ring", "star", "dense-center", "two-centered-ghz")]


_KINDS = [IDENTITIES] + [(kind,) for kind in IDENTITIES]


class TestLossSets:
    def test_sizes_and_order(self):
        got = list(loss_sets(4, 2, 100))
        want = [frozenset(c) for k in (0, 1, 2) for c in combinations(range(4), k)]
        assert got == want
        assert loss_set_count(4, 2) == len(want)

    def test_never_loses_every_vertex(self):
        assert max(len(s) for s in loss_sets(3, 5, 100)) == 2
        assert loss_set_count(3, 5) == 7

    def test_cap(self):
        assert list(loss_sets(5, 2, 3)) == [
            frozenset(), frozenset({0}), frozenset({1})
        ]
        assert list(loss_sets(5, 2, 0)) == []


class TestCheckGraph:
    def test_unknown_kind(self):
        g = generate(FamilySpec("ring", 5))
        with pytest.raises(ValueError, match="unknown identity"):
            check_graph(g, [frozenset()], ("generator",))

    def test_oversized_graph_is_refused_before_any_generator(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generator or weights built before the size check")

        monkeypatch.setattr(verify_mod, "stabilizer", refuse)
        monkeypatch.setattr(verify_mod, "bell_weights", refuse)
        g = generate(FamilySpec("ring", MAX_STATE_CAP + 1))
        with pytest.raises(SizeCapExceededError):
            check_graph(g, loss_sets(g.n, 1, 10), IDENTITIES)

    @staticmethod
    def _plant_fault(monkeypatch):
        true_value = verify_mod.generator_expectation

        def planted(g, i, hypothesis, actual):
            value = true_value(g, i, hypothesis, actual)
            if i == 3 and hypothesis == actual == {1, 4}:
                return 1 - value
            return value

        monkeypatch.setattr(verify_mod, "generator_expectation", planted)

    def test_planted_fault_is_located(self, monkeypatch):
        self._plant_fault(monkeypatch)
        g = generate(FamilySpec("ring", 6))
        result = check_graph(g, loss_sets(g.n, 2, 100), IDENTITIES)
        assert result.loss_sets == 22
        assert result.generator.worst == pytest.approx(1.0)
        assert result.generator.where == ("generator/survivor", g.fingerprint, (1, 4), 3)
        assert result.bell.worst < 1e-9

    @pytest.mark.parametrize("identities", _KINDS, ids=lambda k: "+".join(k))
    def test_equals_the_subgraph_reference(self, identities):
        for g in _graphs():
            sets = list(loss_sets(g.n, 2, 10**6))
            got = check_graph(g, sets, identities)
            assert repr(got) == repr(_reference_check_graph(g, sets, identities))

    @pytest.mark.parametrize("kind,n", [("ring", 6), ("star", 7), ("dense-center", 8)])
    def test_planted_faults_are_located_as_by_the_reference(self, monkeypatch, kind, n):
        self._plant_fault(monkeypatch)
        true_bell = verify_mod.expectation_after_loss
        monkeypatch.setattr(verify_mod, "expectation_after_loss", lambda g, r, lost: (
            true_bell(g, r, lost) + (1 if lost == {1, 2} else 0)))
        g = generate(FamilySpec(kind, n))
        sets = list(loss_sets(g.n, 2, 10**6))
        got = check_graph(g, sets, IDENTITIES)
        assert repr(got) == repr(_reference_check_graph(g, sets, IDENTITIES))
        assert got.bell.where[2] == (1, 2)

    @pytest.mark.parametrize("kind,n", [("ring", 6), ("dense-center", 8)])
    def test_shared_memo_leaves_the_result_unchanged(self, monkeypatch, kind, n):
        self._plant_fault(monkeypatch)
        g = generate(FamilySpec(kind, n))
        shared = check_graph(g, loss_sets(g.n, 2, 100), IDENTITIES)
        # the same loop with a fresh, memo-free state per loss set
        monkeypatch.setattr(LossyState, "with_loss",
                            lambda self, lost: LossyState(self.graph, lost))
        fresh = check_graph(g, loss_sets(g.n, 2, 100), IDENTITIES)
        assert shared == fresh
        assert shared.generator.worst == 1.0
