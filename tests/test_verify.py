from __future__ import annotations

from itertools import combinations

import pytest

import lossbell.verify as verify_mod
from lossbell import FamilySpec, LossyState, generate
from lossbell.verify import IDENTITIES, check_graph, loss_set_count, loss_sets


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
