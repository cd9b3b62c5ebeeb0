"""Gaussian Markov random field structure: graphs, precision matrices,
the intrinsic CAR prior, constrained sampling, propriety checking, and
``Factor``, the Cholesky factor that owns every solve and log determinant
the Laplace engine and the sampler take from a factor.

The intrinsic conditional autoregressive (ICAR) density implemented here
is, up to an additive constant,

    log p(mu | tau) = (n - k) * log(tau) - (tau / 2) * sum_{i~j} (mu_i - mu_j)^2

where the sum runs over undirected edges, n is the node count and k the
number of connected components.  The exponent ``n - k`` on the precision
is the package default; ``half_exponent=True`` switches to the
``(n - k) / 2`` convention.  The quadratic form is always accumulated
edgewise in a fixed edge order so repeated evaluations are bit-exact.

Sum-to-zero constraints are imposed by conditioning by kriging: draw an
unconstrained Gaussian vector from a null-space-regularized precision,
then subtract ``Sigma A' (A Sigma A')^{-1} (A x)`` where ``A`` has one
all-ones indicator row per connected component.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.linalg import lapack

__all__ = [
    "Constraint",
    "AdjacencyGraph",
    "IcarSpec",
    "ProprietyResult",
    "Factor",
    "SingularConstraintError",
    "graph_laplacian",
    "connected_components",
    "component_labels",
    "icar_log_density",
    "icar_quadratic_form",
    "sample_icar_kriging",
    "null_space_basis",
    "propriety_check",
    "lattice_graph",
    "path_graph",
    "cycle_graph",
    "read_edge_list",
    "write_edge_list",
]

#: Relative eigenvalue tolerance below which a direction counts as null.
PROPRIETY_EIG_TOL = 1e-10

#: Relative jitter added along null-space directions before factorizing
#: an intrinsic precision matrix.
NULL_SPACE_JITTER = 1e-8


class Constraint(enum.Enum):
    """How (or whether) an intrinsic field is identified.

    Both sum-to-zero values name one posterior, each connected component
    summing to zero (Rue & Held 2005, section 2.3.3); they differ only in
    how the sampler keeps to it (see ``lgmbench.mcmc``).
    """

    NONE = "none"
    SUM_TO_ZERO_KRIGING = "sum_to_zero_kriging"
    SUM_TO_ZERO_CENTERING = "sum_to_zero_centering"


class SingularConstraintError(ValueError):
    """Raised when the kriging system A Sigma A' is singular."""


@dataclass(frozen=True)
class AdjacencyGraph:
    """Undirected simple graph on nodes 0..n_nodes-1.

    Edges are stored as (i, j) pairs with i < j, sorted, with no
    duplicates and no self loops.  Validation happens at construction so
    downstream code can rely on the canonical form.
    """

    n_nodes: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("graph needs at least one node")
        canon = []
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self loop at node {i}")
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n_nodes}")
            canon.append((min(i, j), max(i, j)))
        if len(set(canon)) != len(canon):
            raise ValueError("duplicate edge")
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        # Structure that every ICAR evaluation reads, computed once and
        # shared read-only.  Plain attributes, not fields, so equality,
        # hashing and repr see only the graph above.
        e = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        ends = (e[:, 0].copy(), e[:, 1].copy())
        labels = _union_find_labels(self.n_nodes, self.edges)
        object.__setattr__(self, "_edge_arrays", ends)
        object.__setattr__(self, "_component_labels", labels)
        laplacian = np.diag(self.degrees().astype(np.float64))
        a, b = ends
        laplacian[a, b] = -1.0
        laplacian[b, a] = -1.0
        object.__setattr__(self, "_laplacian", laplacian)
        for arr in (*ends, labels, laplacian):
            arr.flags.writeable = False

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two read-only int arrays (empty-safe)."""
        return self._edge_arrays

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_nodes, dtype=np.int64)
        a, b = self.edge_arrays()
        np.add.at(deg, a, 1)
        np.add.at(deg, b, 1)
        return deg

    def neighbor_lists(self) -> list[list[int]]:
        nbrs: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        return nbrs


@dataclass(frozen=True)
class IcarSpec:
    """An intrinsic CAR field: graph, precision scale, and constraint."""

    graph: AdjacencyGraph
    tau: float
    constraint: Constraint = Constraint.NONE
    half_exponent: bool = False
    n_components: int = field(init=False)

    def __post_init__(self):
        if not (self.tau > 0.0 and np.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite")
        object.__setattr__(self, "n_components", connected_components(self.graph))


@dataclass(frozen=True)
class ProprietyResult:
    """Outcome of a positive-definiteness check of a dense precision."""

    proper: bool
    deficiency: int
    min_eigenvalue: float
    max_eigenvalue: float

    def __str__(self) -> str:
        if self.proper:
            return "Proper"
        return f"RankDeficient({self.deficiency})"


def graph_laplacian(graph: AdjacencyGraph) -> np.ndarray:
    """Graph Laplacian Q = D - A as a dense n x n matrix, built once per
    graph and shared read-only."""
    return graph._laplacian


def component_labels(graph: AdjacencyGraph) -> np.ndarray:
    """Connected component index per node, as a read-only array.

    Labels are renumbered in order of first appearance by node index, so
    node 0 is always in component 0.
    """
    return graph._component_labels


def _union_find_labels(n_nodes: int, edges) -> np.ndarray:
    """Component labels of a canonical edge list via union-find."""
    parent = np.arange(n_nodes)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    roots = np.array([find(i) for i in range(n_nodes)])
    _, labels = np.unique(roots, return_inverse=True)
    return labels


def connected_components(graph: AdjacencyGraph) -> int:
    """Number of connected components, k >= 1."""
    return int(component_labels(graph).max()) + 1


def icar_quadratic_form(mu: np.ndarray, graph: AdjacencyGraph) -> float:
    """Edgewise quadratic form sum_{i~j} (mu_i - mu_j)^2.

    Accumulated in the canonical edge order so the result is bit-exact
    across calls with the same inputs.
    """
    mu = np.asarray(mu, dtype=np.float64)
    a, b = graph.edge_arrays()
    d = mu[a] - mu[b]
    return float(np.add.reduce(d * d))


def icar_log_density(mu: np.ndarray, spec: IcarSpec) -> float:
    """Unnormalized ICAR log density at mu.

    ``(n - k) log tau - (tau / 2) * quadratic_form`` by default; with
    ``half_exponent`` the leading coefficient becomes ``(n - k) / 2``.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape != (spec.graph.n_nodes,):
        raise ValueError("mu has wrong length for graph")
    n_minus_k = spec.graph.n_nodes - spec.n_components
    coef = 0.5 * n_minus_k if spec.half_exponent else float(n_minus_k)
    return coef * np.log(spec.tau) - 0.5 * spec.tau * icar_quadratic_form(mu, spec.graph)


class Factor:
    """Lower Cholesky factor ``lower`` = L of a symmetric positive-definite
    H = L L', or a (k, d, d) stack of independent ones, and the one owner
    of every operation taken from it.  The Newton step's solve with L
    keeps LU's rounding, which the oracle tests pin; ``forward``, the
    latent marginals' solve with L, is a forward substitution, and solves
    with L' are back-substitutions.  On a stack every member gets the bits
    of its own single-matrix call, whatever the other members."""

    def __init__(self, lower: np.ndarray, ok: np.ndarray | None = None):
        self.lower = lower
        self.ok = ok

    @classmethod
    def of(cls, h: np.ndarray) -> Factor | None:
        """The factor of the float64 matrix ``h``, or None where
        ``np.linalg.cholesky`` would raise LinAlgError: its kernel, whose
        flag for a non-positive-definite input raises here instead of
        calling numpy's error handler.  Same bits, without the wrapper's
        argument checks.

        For a (k, d, d) stack, one kernel call factors every member: the
        result is the factor of the stack, and ``ok[r]`` is False for
        exactly the members where the single-matrix call gives None.  The
        kernel fills such a member with NaN, upper triangle included,
        where it zeroes the upper triangle of a factored one."""
        if h.ndim == 2:
            try:
                with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
                    return cls(_umath_linalg.cholesky_lo(h, signature="d->d"))
            except FloatingPointError:
                return None
        if h.shape[-1] == 1:
            # A 1 x 1 factor has no upper triangle to tell a NaN fill from
            # the NaN factor the kernel returns for a NaN entry.
            members = [cls.of(m) for m in h]
            ok = np.array([m is not None for m in members])
            return cls(np.array([m.lower if m else np.full((1, 1), np.nan) for m in members]), ok)
        with np.errstate(all="ignore"):
            lower = _umath_linalg.cholesky_lo(h, signature="d->d")
        ok = ~np.isnan(lower[:, 0, -1]) if h.shape[-1] else np.ones(len(h), dtype=bool)
        return cls(lower, ok)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """H^{-1} b for a vector ``b`` (one row of a (k, d) ``b`` per member of
        a stack): L y = b by ``np.linalg.solve``'s own LU kernel (the factor
        is never singular), then L' x = y by ``sample``."""
        return self.sample(_umath_linalg.solve1(self.lower, b, signature="dd->d"))

    def sample(self, z: np.ndarray) -> np.ndarray:
        """L'^{-1} z by LAPACK back-substitution (``dtrtrs``), at O(d^2); for
        standard normal ``z``, a draw with covariance H^{-1}.  LU of the
        upper-triangular L' swaps no rows and its U is L' itself, so
        ``np.linalg.solve(L.T, z)`` runs this same back-substitution: same
        bits.  ``z`` is a vector or a matrix of columns, or for a stack one
        row of a (k, d) ``z`` per member; the result is in C order like
        numpy's, because a later product's bits can depend on its operands'
        layout.  Raises LinAlgError on a zero diagonal entry."""
        if not self.lower.shape[-1]:
            return np.zeros(z.shape)
        if self.lower.ndim == 2:
            return np.ascontiguousarray(_triangular_solve(self.lower.T, z, trans=0))
        out = np.empty(z.shape)
        for r, member in enumerate(self.lower):
            out[r] = _triangular_solve(member.T, z[r], trans=0)
        return out

    def forward(self, b: np.ndarray) -> np.ndarray:
        """L^{-1} b by LAPACK forward substitution (``dtrtrs``), at O(d^2)
        per column, for one factor and a vector or a matrix of columns ``b``;
        in C order.  H^{-1} = L'^{-1} L^{-1}, so the column norms of L^{-1} B
        are the variances b' H^{-1} b of B's columns, and ``sample`` of the
        result is H^{-1} B.  A column's bits can depend on the other columns
        of the call.  Raises LinAlgError on a zero diagonal entry."""
        if not self.lower.shape[-1]:
            return np.zeros(b.shape)
        # L is C order, so L' is the Fortran-order array LAPACK reads in
        # place; solving (L')' x = b spares a d x d copy per call.
        return np.ascontiguousarray(_triangular_solve(self.lower.T, b, trans=1))

    def half_log_det(self):
        """log det(H) / 2, summed over the log diagonal of L in index order:
        a float, or for a stack an array of one per member."""
        out = np.add.reduce(np.log(np.diagonal(self.lower, axis1=-2, axis2=-1)), axis=-1)
        return out if self.lower.ndim == 3 else float(out)


def _triangular_solve(upper: np.ndarray, b: np.ndarray, trans: int) -> np.ndarray:
    """upper^{-1} b (``trans`` 0) or upper'^{-1} b (``trans`` 1) for an
    upper-triangular ``upper`` by LAPACK ``dtrtrs``; raises LinAlgError on
    a zero diagonal entry."""
    x, info = lapack.dtrtrs(upper, b, lower=0, trans=trans)
    if info:
        raise np.linalg.LinAlgError(f"dtrtrs failed (info={info})")
    return x


def _regularized_precision(spec: IcarSpec) -> tuple[np.ndarray, np.ndarray]:
    """Dense tau*Q plus null-space jitter, and the constraint rows A.

    The Laplacian's null space is spanned by the per-component indicator
    vectors; adding ``jitter * v v' / |c|`` along each leaves the range
    space untouched while making the matrix positive definite.
    """
    q = graph_laplacian(spec.graph) * spec.tau
    labels = component_labels(spec.graph)
    k = labels.max() + 1
    a_rows = np.zeros((k, spec.graph.n_nodes))
    for c in range(k):
        a_rows[c, labels == c] = 1.0
    jitter = NULL_SPACE_JITTER * np.mean(np.diag(q)) if spec.graph.n_edges else NULL_SPACE_JITTER
    for c in range(k):
        v = a_rows[c]
        q += (jitter / v.sum()) * np.outer(v, v)
    return q, a_rows


def sample_icar_kriging(
    spec: IcarSpec,
    rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Draw from the ICAR prior under per-component sum-to-zero constraints.

    Unconstrained draws use the null-space-regularized precision; the
    kriging correction ``x - Sigma A' (A Sigma A')^{-1} A x`` then
    conditions each component's sum to zero exactly.  Returns shape
    ``(n,)`` for ``size=None`` else ``(size, n)``.
    """
    if spec.constraint is not Constraint.SUM_TO_ZERO_KRIGING:
        raise ValueError("sampling requires the sum-to-zero kriging constraint")
    q_reg, a_rows = _regularized_precision(spec)
    factor = Factor.of(q_reg)
    if factor is None:  # pragma: no cover - regularization prevents this
        raise SingularConstraintError("regularized precision not positive definite")

    n = spec.graph.n_nodes
    m = size if size is not None else 1
    z = rng.standard_normal((m, n))
    # x' L = z  =>  x = z L^{-1}, giving cov (L L')^{-1} = Q_reg^{-1}
    x = factor.sample(z.T).T

    sigma_at = np.linalg.solve(q_reg, a_rows.T)  # Sigma A', shape (n, k)
    gram = a_rows @ sigma_at  # A Sigma A'
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularConstraintError("constraint system A Sigma A' is singular")
    corr = np.linalg.solve(gram, a_rows @ x.T)  # (k, m)
    x = x - (sigma_at @ corr).T
    return x[0] if size is None else x


def null_space_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of null(A), one column per direction, from the full SVD."""
    _, sv, vt = np.linalg.svd(a)
    rank = int(np.sum(sv > max(a.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)))
    return vt[rank:].T


def propriety_check(precision: np.ndarray) -> ProprietyResult:
    """Check positive definiteness of a dense precision.

    Its eigenvalues are compared against ``PROPRIETY_EIG_TOL`` times the
    largest; the number of non-positive directions is the deficiency.
    A constrained model passes the precision of its reduced coordinates.
    """
    eig = np.linalg.eigvalsh(np.asarray(precision, dtype=np.float64))
    largest = float(eig[-1])
    if largest <= 0.0:
        return ProprietyResult(False, eig.size, float(eig[0]), largest)
    deficiency = int(np.sum(eig <= PROPRIETY_EIG_TOL * largest))
    return ProprietyResult(deficiency == 0, deficiency, float(eig[0]), largest)


# ---------------------------------------------------------------------------
# Graph construction helpers and edge-list file format


def lattice_graph(n_rows: int, n_cols: int) -> AdjacencyGraph:
    """Rook-neighbour rectangular lattice with row-major node numbering."""
    if n_rows < 1 or n_cols < 1:
        raise ValueError("lattice dimensions must be >= 1")
    edges = []
    for r in range(n_rows):
        for c in range(n_cols):
            i = r * n_cols + c
            if c + 1 < n_cols:
                edges.append((i, i + 1))
            if r + 1 < n_rows:
                edges.append((i, i + n_cols))
    return AdjacencyGraph(n_rows * n_cols, tuple(edges))


def path_graph(n: int) -> AdjacencyGraph:
    return AdjacencyGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> AdjacencyGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    edges = tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),)
    return AdjacencyGraph(n, edges)


def read_edge_list(path, n_nodes: int | None = None) -> AdjacencyGraph:
    """Read a graph from a text file with one '0-indexed i j' pair per line.

    Blank lines and lines starting with '#' are skipped.  When
    ``n_nodes`` is omitted the node count is inferred as max index + 1.
    """
    edges = []
    max_idx = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'i j', got {text!r}")
            i, j = int(parts[0]), int(parts[1])
            edges.append((i, j))
            max_idx = max(max_idx, i, j)
    n = n_nodes if n_nodes is not None else max_idx + 1
    if n < 1:
        raise ValueError("empty edge list and no n_nodes given")
    return AdjacencyGraph(n, tuple(edges))


def write_edge_list(graph: AdjacencyGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in graph.edges:
            fh.write(f"{i} {j}\n")
