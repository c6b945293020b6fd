from __future__ import annotations

from itertools import combinations

import pytest

from lossbell import (
    FamilySpec,
    Graph,
    Quad,
    expectation_after_loss,
    family_prediction,
    generate,
    leaf_groups,
    max_tolerable_loss,
    quantum_bound,
)

# induced-bound pendant-loss tolerance of the dense-center family, by n;
# floor(n - n/sqrt2) computed once at high precision
DENSE_TOLERANCE = {8: 2, 10: 2, 12: 3}


class TestGenerate:
    def test_ring3_triangle(self):
        g = generate(FamilySpec("ring", 3))
        assert g == Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.roots == {0, 1, 2}

    def test_two_centered_layout(self):
        g = generate(FamilySpec("two-centered-ghz", 12))
        assert g.n_max == 6
        assert g.roots == {0, 1}
        assert leaf_groups(FamilySpec("two-centered-ghz", 12)) == {
            0: (2, 3, 4, 5, 6),
            1: (7, 8, 9, 10, 11),
        }

    @pytest.mark.parametrize("kind, fingerprint", [
        ("ring", "5b3c73f174ab"),
        ("star", "910f3d782ded"),
        ("two-centered-ghz", "c766280f057d"),
        ("dense-center", "2431dc867c26"),
    ])
    def test_fingerprints_at_256(self, kind, fingerprint):
        assert generate(FamilySpec(kind, 256)).fingerprint == fingerprint

    def test_dense_center_layout(self):
        g = generate(FamilySpec("dense-center", 12))
        assert g.n == 12
        assert len(g.edges) == 21
        assert g.n_max == 6
        assert g.roots == frozenset(range(6))

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            FamilySpec("ring", 2)
        with pytest.raises(ValueError):
            FamilySpec("two-centered-ghz", 7)
        with pytest.raises(ValueError):
            FamilySpec("dense-center", 9)
        with pytest.raises(ValueError):
            FamilySpec("wheel", 5)
        with pytest.raises(ValueError, match="ring needs n <= "):
            FamilySpec("ring", 10**8)


class TestPredictions:
    def test_two_centered_single_leaf(self):
        pred = family_prediction(FamilySpec("two-centered-ghz", 12), 1)
        assert pred.value == Quad(4, 11)
        # one leaf lost still beats both bounds (19.56 vs 17 and 16)
        assert pred.violates_induced and pred.violates_full

    def test_two_centered_five_leaves(self):
        pred = family_prediction(FamilySpec("two-centered-ghz", 12), 5)
        assert pred.value == Quad(0, 11)
        assert pred.violates_induced and not pred.violates_full

    def test_dense_center_three_leaves(self):
        pred = family_prediction(FamilySpec("dense-center", 12), 3)
        assert pred.value == Quad(2, 9)
        assert pred.induced_bound == Quad(14)
        assert pred.violates_induced

    def test_dense_center_four_leaves(self):
        pred = family_prediction(FamilySpec("dense-center", 12), 4)
        assert pred.value == Quad(1, 8)
        assert pred.induced_bound == Quad(13)
        assert not pred.violates_induced and not pred.violates_full

    def test_star_values(self):
        pred = family_prediction(FamilySpec("star", 6), 1)
        assert pred.value == Quad(0, 4)
        assert not pred.violates_induced
        assert family_prediction(FamilySpec("star", 6), 0).value == quantum_bound(
            generate(FamilySpec("star", 6))
        )

    def test_out_of_validity(self):
        with pytest.raises(ValueError):
            family_prediction(FamilySpec("ring", 6), 1)
        with pytest.raises(ValueError):
            family_prediction(FamilySpec("two-centered-ghz", 12), 6)
        with pytest.raises(ValueError):
            family_prediction(FamilySpec("dense-center", 12), 6)

    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_engine_agreement_two_centered(self, n):
        if n % 2:
            return
        spec = FamilySpec("two-centered-ghz", n)
        g = generate(spec)
        groups = leaf_groups(spec)
        for k in range(1, n // 2):
            pred = family_prediction(spec, k)
            # every same-hub pendant subset of that size, anchored opposite
            for hub, anchor in ((0, 1), (1, 0)):
                for combo in combinations(groups[hub], k):
                    assert expectation_after_loss(g, anchor, frozenset(combo)) == pred.value

    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_engine_agreement_dense_center(self, n):
        spec = FamilySpec("dense-center", n)
        g = generate(spec)
        pendants = g.leaves()
        for k in range(0, n // 2):
            pred = family_prediction(spec, k)
            # any pendants whose hubs exclude the anchor's own
            for combo in combinations(pendants[1:], k):
                assert expectation_after_loss(g, 0, frozenset(combo)) == pred.value

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_engine_agreement_star(self, n):
        spec = FamilySpec("star", n)
        g = generate(spec)
        for k in range(0, n - 1):
            pred = family_prediction(spec, k)
            assert expectation_after_loss(g, 0, frozenset(range(1, 1 + k))) == pred.value


class TestTolerances:
    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_two_centered_same_hub_best_case(self, n):
        spec = FamilySpec("two-centered-ghz", n)
        g = generate(spec)
        same_hub = frozenset(leaf_groups(spec)[0])
        result = max_tolerable_loss(g, same_hub, "best-case", "induced")
        assert result.k == n // 2 - 1

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_dense_center_best_case(self, n):
        g = generate(FamilySpec("dense-center", n))
        result = max_tolerable_loss(g, frozenset(g.leaves()), "best-case", "induced")
        assert result.k == DENSE_TOLERANCE[n]
