"""Root-anchored Bell operators for graph states.

Two forms are provided: the weighted stabilizer sum used by the exact
analysis (coefficients sqrt(2)*n_max on the root generator, sqrt(2) on the
root's neighbors, 1 elsewhere) and a generic dense form assembled from
arbitrary two-outcome single-qubit observables, which the oracle uses to
cross-check the stabilizer-sum form under the ideal measurement settings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGraphError, NotARootError, SizeCapExceededError
from .graphs import Graph
from .pauli import PauliString, stabilizer
from .quad import SQRT2, Quad

DENSE_OPERATOR_CAP = 14

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def _require_nondegenerate(g: Graph) -> None:
    if g.n_max == 0:
        raise DegenerateGraphError(
            "graph has no edges; bound formulas need n_max >= 1"
        )


def classical_bound(g: Graph) -> Quad:
    """Best score of local deterministic strategies: n_max + N - 1."""
    _require_nondegenerate(g)
    return Quad(g.n_max + g.n - 1)


def quantum_bound(g: Graph) -> Quad:
    """Best quantum score: (2*sqrt(2) - 1)*n_max + N - 1."""
    _require_nondegenerate(g)
    return Quad(g.n - 1 - g.n_max, 2 * g.n_max)


@dataclass(frozen=True)
class WeightedStabilizerSum:
    """Bell operator as sum(coeff_i * S_i) over all vertex generators.

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

    def __iter__(self):
        return iter(self.terms)


def bell_stabilizer_sum(
    g: Graph, r: int, *, allow_non_root: bool = False
) -> WeightedStabilizerSum:
    """Weighted stabilizer sum anchored at vertex r.

    r must attain the maximum degree; ``allow_non_root=True`` skips that
    check for callers that deliberately anchor a subgraph operator at a
    vertex which lost its root status (the coefficient on the anchor term
    stays sqrt(2)*n_max of this graph).
    """
    _require_nondegenerate(g)
    if not 0 <= r < g.n:
        raise IndexError(f"vertex {r} out of range")
    if not allow_non_root and r not in g.roots:
        raise NotARootError(
            f"vertex {r} has degree {g.degree(r)}, not the maximum {g.n_max}"
        )
    nr = g.neighborhood(r)
    terms = [(r, Quad(0, g.n_max), stabilizer(g, r))]
    terms += [(i, SQRT2, stabilizer(g, i)) for i in sorted(nr)]
    terms += [
        (i, Quad(1), stabilizer(g, i))
        for i in range(g.n)
        if i != r and i not in nr
    ]
    return WeightedStabilizerSum(g.n, r, g.fingerprint, tuple(terms))


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
        if len(y0) != len(y1):
            raise ValueError("y0 and y1 must cover the same vertices")
        for mats in (y0, y1):
            for m in mats:
                if m.shape != (2, 2) or not np.allclose(m, m.conj().T, atol=1e-12):
                    raise ValueError("observables must be 2x2 Hermitian")
                if not np.allclose(m @ m, _I2, atol=1e-12):
                    raise ValueError("observables must square to the identity")
        self.y0 = [np.array(m, dtype=complex) for m in y0]
        self.y1 = [np.array(m, dtype=complex) for m in y1]
        self.labels = labels

    @classmethod
    def ideal(cls, g: Graph, r: int) -> MeasurementSetting:
        """Settings attaining the quantum bound for the operator rooted at r."""
        s = 1 / np.sqrt(2)
        y0, y1, labels = [], [], []
        for i in range(g.n):
            if i == r:
                y0.append(s * (_X + _Z))
                y1.append(s * (_X - _Z))
                labels.append(("(X+Z)/sqrt2", "(X-Z)/sqrt2"))
            else:
                y0.append(_X.copy())
                y1.append(_Z.copy())
                labels.append(("X", "Z"))
        return cls(y0, y1, labels)


def _kron_term(n: int, site_mats: dict[int, np.ndarray]) -> np.ndarray:
    """Dense tensor product with qubit 0 as the least significant bit."""
    out = np.array([[1]], dtype=complex)
    for k in range(n - 1, -1, -1):
        out = np.kron(out, site_mats.get(k, _I2))
    return out


def generic_bell_operator(
    g: Graph, r: int, setting: MeasurementSetting, cap: int = DENSE_OPERATOR_CAP
) -> np.ndarray:
    """Dense Bell operator for arbitrary observables, assembled term by term.

    Three groups of terms: the doubled root correlator over the root's
    neighborhood, one correlator per root neighbor (with the root flipped to
    the difference observable), and one per remaining vertex.  Allocates a
    2**n x 2**n complex matrix; callers must respect the cap.
    """
    _require_nondegenerate(g)
    if g.n > cap:
        raise SizeCapExceededError(f"n={g.n} exceeds dense-operator cap {cap}")
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
    if op.n > DENSE_OPERATOR_CAP:
        raise SizeCapExceededError(
            f"n={op.n} exceeds dense-operator cap {DENSE_OPERATOR_CAP}"
        )
    out = np.zeros((2**op.n, 2**op.n), dtype=complex)
    for _, coeff, pauli in op.terms:
        out += float(coeff) * pauli.to_matrix()
    return out
