"""Generators for four reference topologies and their closed-form
post-loss predictions.

ring       cycle on n vertices (every vertex has degree 2)
star       one hub adjacent to n-1 pendant vertices
two-centered-ghz
           two adjacent hubs, each with (n-2)/2 private pendants
dense-center
           complete graph on n/2 vertices, one private pendant per
           clique vertex

The closed forms cover pendant ("leaf") losses only; arbitrary losses go
through the generic engine in `lossbell.loss`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bell import classical_bound, quantum_bound, survivors
from .graphs import DEFAULT_VERTEX_CAP, Graph
from .quad import Quad

KINDS = ("ring", "star", "two-centered-ghz", "dense-center")


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown family {self.kind!r}; pick one of {KINDS}")
        minimum = {"ring": 3, "star": 2, "two-centered-ghz": 4, "dense-center": 4}
        if self.n < minimum[self.kind]:
            raise ValueError(f"{self.kind} needs n >= {minimum[self.kind]}")
        if self.n > DEFAULT_VERTEX_CAP:
            raise ValueError(f"{self.kind} needs n <= {DEFAULT_VERTEX_CAP}")
        if self.kind in ("two-centered-ghz", "dense-center") and self.n % 2:
            raise ValueError(f"{self.kind} needs even n, got {self.n}")


def generate(spec: FamilySpec) -> Graph:
    n = spec.n
    if spec.kind == "ring":
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if spec.kind == "star":
        return Graph(n, [(0, i) for i in range(1, n)])
    if spec.kind == "two-centered-ghz":
        half = (n - 2) // 2
        edges = [(0, 1)]
        edges += [(0, i) for i in range(2, 2 + half)]
        edges += [(1, i) for i in range(2 + half, n)]
        return Graph(n, edges)
    # dense-center
    half = n // 2
    edges = [(i, j) for i in range(half) for j in range(i + 1, half)]
    edges += [(i, half + i) for i in range(half)]
    return Graph(n, edges)


def leaf_groups(spec: FamilySpec) -> dict[int, tuple[int, ...]]:
    """Pendant vertices keyed by the hub they hang from."""
    g = generate(spec)
    groups: dict[int, list[int]] = {}
    for leaf in g.leaves():
        (hub,) = g.neighborhood(leaf)
        groups.setdefault(hub, []).append(leaf)
    return {hub: tuple(sorted(vs)) for hub, vs in sorted(groups.items())}


@dataclass(frozen=True)
class FamilyPrediction:
    spec: FamilySpec
    loss_size: int
    anchor_root: int
    canonical_loss: tuple[int, ...]
    value: Quad
    full_bound: Quad
    induced_bound: Quad | None
    violates_full: bool
    violates_induced: bool


def _canonical_loss(spec: FamilySpec, k: int) -> tuple[int, ...]:
    """(anchor, lost...) for the closed-form scenario of each family."""
    if spec.kind == "star":
        return (0, *range(1, 1 + k))
    if spec.kind == "two-centered-ghz":
        # lose pendants of hub 0, anchor at hub 1
        return (1, *range(2, 2 + k))
    # dense-center: anchor clique vertex 0, lose pendants of clique vertices 1..k
    half = spec.n // 2
    return (0, *range(half + 1, half + 1 + k))


def family_prediction(spec: FamilySpec, loss_size: int) -> FamilyPrediction:
    """Closed-form post-loss expectation and bound verdicts for a family.

    Validity ranges: ring supports loss_size 0 only; star 0..n-2 pendant
    losses anchored at the hub; two-centered-ghz 1..n/2-1 pendants of one
    hub anchored at the other; dense-center 0..n/2-1 pendants.  Anything
    else raises ValueError; the generic engine handles arbitrary losses.
    """
    n = spec.n
    if loss_size < 0:
        raise ValueError("loss_size must be nonnegative")
    if spec.kind == "ring":
        if loss_size != 0:
            raise ValueError(
                "no closed form for ring losses; use the generic engine"
            )
        value = Quad(n - 3, 4)  # quantum bound with degree 2
    elif spec.kind == "star":
        if loss_size > n - 2:
            raise ValueError(f"star closed form covers at most {n - 2} pendant losses")
        if loss_size == 0:
            value = quantum_bound(generate(spec))
        else:
            value = Quad(0, n - 1 - loss_size)
    elif spec.kind == "two-centered-ghz":
        if not 1 <= loss_size <= n // 2 - 1:
            raise ValueError(
                f"two-centered closed form covers 1..{n // 2 - 1} same-hub pendant losses"
            )
        n_max = n // 2
        value = Quad(n - 1 - n_max - loss_size, 2 * n_max - 1)
    else:  # dense-center
        if not 0 <= loss_size <= n // 2 - 1:
            raise ValueError(
                f"dense-center closed form covers 0..{n // 2 - 1} pendant losses"
            )
        n_max = n // 2
        value = Quad(n - 1 - n_max - loss_size, 2 * n_max - loss_size)

    g = generate(spec)
    anchor, *lost = _canonical_loss(spec, loss_size)
    _, _, induced = survivors(g, g.loss_mask(lost))
    induced_bound = None if induced is None else Quad(induced)
    full_bound = classical_bound(g)
    return FamilyPrediction(
        spec=spec,
        loss_size=loss_size,
        anchor_root=anchor,
        canonical_loss=tuple(lost),
        value=value,
        full_bound=full_bound,
        induced_bound=induced_bound,
        violates_full=value > full_bound,
        violates_induced=induced_bound is not None and value > induced_bound,
    )
