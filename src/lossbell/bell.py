"""Root-anchored Bell operators for graph states.

Two forms are provided: the weighted stabilizer sum used by the exact
analysis (coefficients sqrt(2)*n_max on the root generator, sqrt(2) on the
root's neighbors, 1 elsewhere) and a generic dense form assembled from
arbitrary two-outcome single-qubit observables, which the oracle uses to
cross-check the stabilizer-sum form under the ideal measurement settings.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import DegenerateGraphError, NotARootError, SizeCapExceededError
from .graphs import DENSE_OPERATOR_CAP, Graph, members
from .pauli import PauliString, pauli_matrices, stabilizer
from .quad import SQRT2, Quad

if TYPE_CHECKING:
    import numpy as np

# The dense forms below import numpy where they build an array, so that the
# exact analysis never loads it, and refuse graphs above `DENSE_OPERATOR_CAP`.


def _require_nondegenerate(g: Graph) -> None:
    if g.n_max == 0:
        raise DegenerateGraphError(
            "graph has no edges; bound formulas need n_max >= 1"
        )


def require_root(g: Graph, r: int) -> None:
    """Raise unless r is a vertex of maximum degree."""
    if not 0 <= r < g.n:
        raise IndexError(f"vertex {r} out of range")
    if r not in g.roots:
        raise NotARootError(
            f"vertex {r} has degree {g.degree(r)}, not the maximum {g.n_max}"
        )


def survivors(g: Graph, lost: int) -> tuple[dict[int, int], int, int | None]:
    """The graph induced on the vertices not in the mask ``lost``, without
    building it: each survivor's degree there (in index order), its maximum
    degree n_max, and its classical bound n_max + N - 1, or None when no
    edge survives."""
    degrees = g.survivor_degrees(lost)
    n_max = max(degrees.values())
    return degrees, n_max, n_max + len(degrees) - 1 if n_max else None


def survivors_n_max(g: Graph, lost: int) -> int:
    """Maximum degree of the graph induced on the vertices not in the mask
    ``lost``; the bound formulas need it to be at least 1."""
    _, n_max, bound = survivors(g, lost)
    if bound is None:
        raise DegenerateGraphError("the survivors' graph has no edges")
    return n_max


def classical_bound(g: Graph, *, lost: frozenset[int] | None = None) -> Quad:
    """Best score of local deterministic strategies: n_max + N - 1.

    With ``lost``, that of the graph induced on the survivors.
    """
    if lost is None:
        _require_nondegenerate(g)
        return Quad(g.n_max + g.n - 1)
    _, _, bound = survivors(g, g.loss_mask(lost))
    if bound is None:
        raise DegenerateGraphError("the survivors' graph has no edges")
    return Quad(bound)


def quantum_bound(g: Graph) -> Quad:
    """Best quantum score: (2*sqrt(2) - 1)*n_max + N - 1."""
    _require_nondegenerate(g)
    return Quad(g.n - 1 - g.n_max, 2 * g.n_max)


@dataclass(frozen=True)
class WeightedStabilizerSum:
    """Bell operator as sum(coeff_i * S_i) over all vertex generators (all
    survivors' generators, for a survivors' operator).

    ``terms`` lists (vertex, coefficient, generator) with the root term
    first, then the root's neighbors, then the remaining vertices, each group
    in index order.
    """

    n: int
    root: int
    graph_fingerprint: str
    terms: tuple[tuple[int, Quad, PauliString], ...]

    def coefficient_total(self) -> Quad:
        total = Quad(0)
        for _, coeff, _ in self.terms:
            total = total + coeff
        return total


def _coefficients(n_max: int) -> tuple[Quad, Quad, Quad]:
    """Coefficients of the anchor, its neighbors and every other vertex."""
    return Quad(0, n_max), SQRT2, Quad(1)


@lru_cache(maxsize=None)
def _float_coefficients(n_max: int) -> tuple[float, float, float]:
    return tuple(float(c) for c in _coefficients(n_max))


def _weighted_vertices(
    g: Graph,
    r: int,
    lost: frozenset[int] | None,
    coefficients: Callable[[int], tuple[Quad, Quad, Quad] | tuple[float, float, float]],
) -> list[tuple[int, Quad | float]]:
    """(vertex, coefficient) of every term in term order: the anchor r, then
    its surviving neighbors, then the other survivors, each group ascending.
    The anchor's coefficient uses the survivors' maximum degree."""
    if lost is None:
        _require_nondegenerate(g)
        require_root(g, r)
        lost_mask, n_max = 0, g.n_max
    else:
        if not 0 <= r < g.n:
            raise IndexError(f"vertex {r} out of range")
        lost_mask = g.loss_mask(lost)
        if lost_mask >> r & 1:
            raise ValueError(f"anchor vertex {r} is in the loss set")
        n_max = survivors_n_max(g, lost_mask)
    c_anchor, c_neighbor, c_other = coefficients(n_max)
    neighbors = g.adjacency_masks[r] & ~lost_mask
    others = ((1 << g.n) - 1) & ~lost_mask & ~neighbors & ~(1 << r)
    return (
        [(r, c_anchor)]
        + [(v, c_neighbor) for v in members(neighbors)]
        + [(v, c_other) for v in members(others)]
    )


def bell_stabilizer_sum(
    g: Graph, r: int, *, lost: frozenset[int] | None = None
) -> WeightedStabilizerSum:
    """Weighted stabilizer sum anchored at vertex r.

    Without ``lost``, the operator of g, and r must attain the maximum
    degree.  With ``lost`` (possibly empty), the operator of the graph
    induced on the survivors, on the full register: one term per survivor,
    its generator from ``stabilizer(g, i, lost=lost)``, and the anchor's
    coefficient sqrt(2)*n_max of the survivors.  Any survivor may anchor it,
    whether or not it is a root there.
    """
    terms = tuple(
        (v, c, stabilizer(g, v, lost=lost or frozenset()))
        for v, c in _weighted_vertices(g, r, lost, _coefficients)
    )
    return WeightedStabilizerSum(g.n, r, g.fingerprint, terms)


def bell_weights(
    g: Graph, r: int, *, lost: frozenset[int] | None = None
) -> tuple[tuple[int, float], ...]:
    """``(vertex, float(coefficient))`` of each term of
    ``bell_stabilizer_sum(g, r, lost=lost)``, in its term order, without
    building the generators: what the oracle weights generator values by."""
    return tuple(_weighted_vertices(g, r, lost, _float_coefficients))


class MeasurementSetting:
    """Per-vertex pair of two-outcome observables (2x2 Hermitian involutions).

    ``labels`` carries symbolic tags for rendering; the ideal setting tags
    the root with (X+Z)/sqrt2 and (X-Z)/sqrt2 and every other vertex with X
    and Z.
    """

    __slots__ = ("y0", "y1", "labels")

    def __init__(
        self,
        y0: list[np.ndarray],
        y1: list[np.ndarray],
        labels: list[tuple[str, str]] | None = None,
    ) -> None:
        import numpy as np

        if len(y0) != len(y1):
            raise ValueError("y0 and y1 must cover the same vertices")
        for mats in (y0, y1):
            for m in mats:
                if m.shape != (2, 2) or not np.allclose(m, m.conj().T, atol=1e-12):
                    raise ValueError("observables must be 2x2 Hermitian")
                if not np.allclose(m @ m, pauli_matrices()["I"], atol=1e-12):
                    raise ValueError("observables must square to the identity")
        self.y0 = [np.array(m, dtype=complex) for m in y0]
        self.y1 = [np.array(m, dtype=complex) for m in y1]
        self.labels = labels

    @classmethod
    def ideal(cls, g: Graph, r: int) -> MeasurementSetting:
        """Settings attaining the quantum bound for the operator rooted at r."""
        matrices = pauli_matrices()
        x, z = matrices["X"], matrices["Z"]
        s = 1 / 2**0.5
        y0, y1, labels = [], [], []
        for i in range(g.n):
            if i == r:
                y0.append(s * (x + z))
                y1.append(s * (x - z))
                labels.append(("(X+Z)/sqrt2", "(X-Z)/sqrt2"))
            else:
                y0.append(x.copy())
                y1.append(z.copy())
                labels.append(("X", "Z"))
        return cls(y0, y1, labels)


def _kron_term(n: int, site_mats: dict[int, np.ndarray]) -> np.ndarray:
    """Dense tensor product with qubit 0 as the least significant bit."""
    import numpy as np

    identity = pauli_matrices()["I"]
    out = np.array([[1]], dtype=complex)
    for k in range(n - 1, -1, -1):
        out = np.kron(out, site_mats.get(k, identity))
    return out


def _check_dense_cap(n: int) -> None:
    if n > DENSE_OPERATOR_CAP:
        raise SizeCapExceededError(
            f"n={n} exceeds dense-operator cap {DENSE_OPERATOR_CAP}"
        )


def generic_bell_operator(
    g: Graph, r: int, setting: MeasurementSetting
) -> np.ndarray:
    """Dense Bell operator for arbitrary observables, assembled term by term.

    Three groups of terms: the doubled root correlator over the root's
    neighborhood, one correlator per root neighbor (with the root flipped to
    the difference observable), and one per remaining vertex.  Allocates a
    2**n x 2**n complex matrix, so n above `DENSE_OPERATOR_CAP` is refused.
    """
    import numpy as np

    _require_nondegenerate(g)
    _check_dense_cap(g.n)
    if r not in g.roots:
        raise NotARootError(f"vertex {r} is not a maximum-degree vertex")
    if len(setting.y0) != g.n:
        raise ValueError("setting does not cover every vertex")
    nr = g.neighborhood(r)
    out = np.zeros((2**g.n, 2**g.n), dtype=complex)

    mats = {r: setting.y0[r] + setting.y1[r]}
    mats.update({i: setting.y1[i] for i in nr})
    out += g.n_max * _kron_term(g.n, mats)

    for i in sorted(nr):
        mats = {r: setting.y0[r] - setting.y1[r], i: setting.y0[i]}
        mats.update({j: setting.y1[j] for j in g.neighborhood(i) if j != r})
        out += _kron_term(g.n, mats)

    for i in range(g.n):
        if i == r or i in nr:
            continue
        mats = {i: setting.y0[i]}
        mats.update({j: setting.y1[j] for j in g.neighborhood(i)})
        out += _kron_term(g.n, mats)
    return out


def stabilizer_sum_matrix(op: WeightedStabilizerSum) -> np.ndarray:
    """Dense matrix of a weighted stabilizer sum (for entrywise comparisons)."""
    import numpy as np

    _check_dense_cap(op.n)
    out = np.zeros((2**op.n, 2**op.n), dtype=complex)
    for _, coeff, pauli in op.terms:
        out += float(coeff) * pauli.to_matrix()
    return out
