"""Simple undirected graphs with the neighborhood/root/induced-subgraph
vocabulary used by the analysis.

Vertices are integers 0..n-1.  Vertex sets on the hot path are int bitmasks
(bit v is set iff v is in the set): each neighborhood is held only as one,
and `Graph.loss_mask` is the one place a loss set is checked and turned into
one.  Graphs are immutable after construction and hashable, so they can key
caches inside sweeps.  Two text formats are understood by
:meth:`Graph.parse`: a JSON document ``{"n": 5, "edges": [[0, 1], ...]}``
and a plain edge list ("i j" per line) with an ``n=<N>`` header line.
"""

from __future__ import annotations

import hashlib
import json
import operator
import random
from collections.abc import Iterable

from .errors import GraphFormatError

# Graph.parse and the built-in families refuse more vertices, before anything
# is allocated per vertex: at the cap the adjacency masks of a graph take at
# most n*n/8 bytes (12.5 MB), and they grow quadratically beyond it.
DEFAULT_VERTEX_CAP = 10_000
# An n-qubit statevector holds 2**n complex128 amplitudes (16 bytes each) and reads
# an int64 index vector as long (8 bytes each); `apply_pauli`'s temporaries come on
# top.  The oracle refuses n above MAX_STATE_CAP, the largest whose pair fits the
# budget, and keeps one state.  `verify --cap` (default DEFAULT_STATE_CAP, at most
# MAX_STATE_CAP) refuses a larger graph before drawing, generating or checking
# anything.  These live here, not in `oracle`, so reading them needs no numpy.
DEFAULT_STATE_CAP = 14
STATE_BYTE_BUDGET = 1 << 28
MAX_STATE_CAP = (STATE_BYTE_BUDGET // (16 + 8)).bit_length() - 1
# The dense operators of `bell` refuse more vertices than this cap, before any
# array is allocated.  An n-vertex operator is a 2**n x 2**n complex128 matrix
# (4**n * 16 bytes), and building one holds three full-size arrays at its
# peak: the result, one term's Kronecker product and a scaled copy of that
# term.  The cap is the largest n whose three fit the budget: 11, where they
# take 192 MiB (the result alone would allow 12).
DENSE_OPERATOR_CAP = ((STATE_BYTE_BUDGET // (3 * 16)).bit_length() - 1) // 2


class Graph:
    __slots__ = (
        "_n", "_edges", "_masks", "_n_max", "_roots", "_vertices",
        "_fingerprint",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={n}")
        # any integer type: a numpy n or endpoint would overflow a shift
        index = operator.index
        n = index(n)
        masks = [0] * n
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            i = index(i)
            j = index(j)
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        # each edge once, ascending: the neighbours above each vertex, so
        # duplicates and reversed pairs need no set and no sort
        ordered = []
        append = ordered.append
        for i, mask in enumerate(masks):
            above = mask >> i + 1
            while above:
                low = above & -above
                append((i, i + low.bit_length()))
                above ^= low
        self._n = n
        self._edges = tuple(ordered)
        self._masks = tuple(masks)
        degrees = [mask.bit_count() for mask in masks]
        self._n_max = max(degrees)
        self._roots = frozenset(
            i for i, degree in enumerate(degrees) if degree == self._n_max
        )
        # built on first use
        self._vertices: frozenset[int] | None = None
        self._fingerprint: str | None = None

    # -- basic queries -------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def n_max(self) -> int:
        """Maximum vertex degree."""
        return self._n_max

    @property
    def roots(self) -> frozenset[int]:
        """Vertices attaining the maximum degree."""
        return self._roots

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            text = f"{self._n}|{self._edges}"
            self._fingerprint = hashlib.sha256(text.encode()).hexdigest()[:12]
        return self._fingerprint

    @property
    def vertices(self) -> frozenset[int]:
        if self._vertices is None:
            self._vertices = frozenset(range(self._n))
        return self._vertices

    @property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighborhoods as bitmasks: bit j of entry i is set iff i ~ j."""
        return self._masks

    def _mask_of(self, i: int) -> int:
        if not 0 <= i < self._n:
            raise IndexError(f"vertex {i} out of range for n={self._n}")
        return self._masks[i]

    def degree(self, i: int) -> int:
        return self._mask_of(i).bit_count()

    def neighborhood(self, i: int) -> frozenset[int]:
        return frozenset(members(self._mask_of(i)))

    def leaves(self) -> tuple[int, ...]:
        """Degree-1 vertices, in index order."""
        return tuple(i for i, mask in enumerate(self._masks) if mask.bit_count() == 1)

    def is_connected(self) -> bool:
        masks = self._masks
        seen = frontier = 1
        while frontier:
            reached = 0
            for v in members(frontier):
                reached |= masks[v]
            frontier = reached & ~seen
            seen |= frontier
        return seen == (1 << self._n) - 1

    def loss_mask(self, loss: Iterable[int]) -> int:
        """Mask of the loss set ``loss``: a member that is not a vertex, or a
        loss of every vertex, is a `ValueError`, and a non-integer equal to a
        vertex (1.0) a `TypeError`.  Any integer type (numpy's) is accepted."""
        loss = frozenset(loss)
        if not loss <= self.vertices:
            raise ValueError("loss set contains out-of-range vertices")
        if len(loss) >= self._n:
            raise ValueError("losing every qubit is not allowed")
        mask = 0
        for v in loss:
            try:
                mask |= 1 << operator.index(v)
            except TypeError:
                raise TypeError(f"loss set member {v!r} is not an integer") from None
        return mask

    def survivor_degrees(self, lost: int) -> dict[int, int]:
        """Degree of each vertex not in the mask ``lost``, in the graph
        induced on those vertices, in index order."""
        keep = ((1 << self._n) - 1) & ~lost
        return {
            v: (mask & keep).bit_count()
            for v, mask in enumerate(self._masks)
            if keep >> v & 1
        }

    def induced_subgraph(
        self, keep: Iterable[int]
    ) -> tuple[Graph, dict[int, int]]:
        """Subgraph on ``keep`` plus the old->new vertex relabeling map."""
        keep = frozenset(keep)
        if not keep:
            raise ValueError("cannot induce a subgraph on an empty vertex set")
        if not keep <= self.vertices:
            raise ValueError("keep set contains out-of-range vertices")
        mapping = {old: new for new, old in enumerate(sorted(keep))}
        edges = [
            (mapping[i], mapping[j])
            for i, j in self._edges
            if i in keep and j in keep
        ]
        return Graph(len(keep), edges), mapping

    # -- identity ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, edges={list(self._edges)})"

    # -- text formats ----------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        return {"n": self._n, "edges": [list(e) for e in self._edges]}

    def dumps(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def parse(cls, text: str) -> Graph:
        """Graph from either text format; a vertex count above
        `DEFAULT_VERTEX_CAP` is a `GraphFormatError`, raised before any
        per-vertex allocation."""
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return cls._parse_json(stripped)
        return cls._parse_edge_list(text)

    @staticmethod
    def _check_cap(n: int) -> None:
        if n > DEFAULT_VERTEX_CAP:
            raise GraphFormatError(
                f"n={n} exceeds the vertex cap {DEFAULT_VERTEX_CAP}"
            )

    @classmethod
    def _parse_json(cls, text: str) -> Graph:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(
                f"invalid JSON graph document: {exc}"
            ) from exc
        if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
            raise GraphFormatError('JSON graph needs fields "n" and "edges"')
        # JSON integers only: a float, string or boolean is refused, not cut
        # down to an int (json.loads gives every JSON integer as an exact int)
        try:
            n = doc["n"]
            if type(n) is not int:
                raise GraphFormatError(
                    f"bad graph document: non-integer n {json.dumps(n)}"
                )
            cls._check_cap(n)
            edges = []
            for pair in doc["edges"]:
                i, j = pair
                if type(i) is not int or type(j) is not int:
                    raise GraphFormatError(
                        "bad graph document: non-integer vertex in edge "
                        f"{json.dumps(pair)}"
                    )
                edges.append((i, j))
            return cls(n, edges)
        except GraphFormatError:
            raise
        except (TypeError, ValueError) as exc:
            raise GraphFormatError(f"bad graph document: {exc}") from exc

    @classmethod
    def _parse_edge_list(cls, text: str) -> Graph:
        n = None
        edges = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if n is None:
                if not line.startswith("n="):
                    raise GraphFormatError(
                        f'line {lineno}: expected header "n=<N>", got {line!r}'
                    )
                try:
                    n = int(line[2:])
                except ValueError as exc:
                    raise GraphFormatError(
                        f"line {lineno}: bad vertex count {line[2:]!r}"
                    ) from exc
                cls._check_cap(n)
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(
                    f'line {lineno}: expected "i j", got {line!r}'
                )
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise GraphFormatError(
                    f"line {lineno}: non-integer vertex in {line!r}"
                ) from exc
        if n is None:
            raise GraphFormatError('missing "n=<N>" header line')
        try:
            return cls(n, edges)
        except ValueError as exc:
            raise GraphFormatError(str(exc)) from exc


def members(mask: int) -> list[int]:
    """The vertices of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def random_connected_graph(
    n: int, rng: random.Random, extra_edge_prob: float = 0.25
) -> Graph:
    """Uniform-ish random connected graph: random tree plus extra edges."""
    # parent[v] < v, so the pair (i, j), i < j, is a tree edge iff parent[j] == i
    parent = [-1] + [rng.randrange(v) for v in range(1, n)]
    edges = [(parent[v], v) for v in range(1, n)]
    for i in range(n):
        for j in range(i + 1, n):
            if parent[j] != i and rng.random() < extra_edge_prob:
                edges.append((i, j))
    return Graph(n, edges)
