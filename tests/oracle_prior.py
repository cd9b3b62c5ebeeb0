"""Reference copy of the sparse latent prior builder, kept as a test oracle.

``latent_prior_precision`` below is the version that assembled the prior
from Python lists into a ``SparseSymMatrix``, an upper-triangle COO
matrix that dropped explicit zeros, with the graph Laplacian in the same
storage.  The package now builds the dense matrix directly; its bytes
must equal ``latent_prior_precision(...).to_dense()`` here.  The model
helpers they share (slices, block precisions, fixed-effect precision)
are imported, not copied.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lgmbench.gmrf import AdjacencyGraph
from lgmbench.models import (
    Dataset,
    ModelSpec,
    _block_precisions,
    _require_graph,
    fixed_effect_precision,
    latent_dim,
    latent_slices,
)


@dataclass(frozen=True)
class SparseSymMatrix:
    """Symmetric matrix stored as its upper triangle in COO form.

    Entries are sorted by (row, col) with row <= col and explicit zeros
    dropped, so two structurally equal matrices compare equal entrywise.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        vals = np.asarray(self.vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows/cols/vals must have matching shapes")
        if rows.size and (rows.min() < 0 or cols.max() >= self.n):
            raise ValueError("index out of range")
        if np.any(rows > cols):
            raise ValueError("entries must lie in the upper triangle")
        keep = vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size > 1:
            same = (np.diff(rows) == 0) & (np.diff(cols) == 0)
            if np.any(same):
                raise ValueError("duplicate entry")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "vals", vals)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self.rows, self.cols] = self.vals
        off = self.rows != self.cols
        out[self.cols[off], self.rows[off]] = self.vals[off]
        return out


def graph_laplacian(graph: AdjacencyGraph) -> SparseSymMatrix:
    """Graph Laplacian Q = D - A as a sparse symmetric matrix."""
    deg = graph.degrees()
    a, b = graph.edge_arrays()
    on = deg > 0
    rows = np.concatenate([np.flatnonzero(on), a])
    cols = np.concatenate([np.flatnonzero(on), b])
    vals = np.concatenate([deg[on].astype(np.float64), -np.ones(a.size)])
    return SparseSymMatrix(graph.n_nodes, rows, cols, vals)


def latent_prior_precision(spec: ModelSpec, hyper: np.ndarray, data: Dataset) -> SparseSymMatrix:
    """Block-diagonal prior precision of the latent vector.

    Fixed effects get ``1/sd^2``, the IID block its precision times the
    identity, and the intrinsic block its precision times the graph
    Laplacian (rank n - k).
    """
    n = data.n
    sl = latent_slices(spec, n)
    prec = _block_precisions(spec, hyper)
    d = latent_dim(spec, n)
    rows = []
    cols = []
    vals = []
    p_fixed = fixed_effect_precision(spec)
    for i in range(sl["beta"].stop):
        rows.append(i)
        cols.append(i)
        vals.append(p_fixed)
    if "iid" in sl:
        s = math.exp(prec["iid"])
        for i in range(sl["iid"].start, sl["iid"].stop):
            rows.append(i)
            cols.append(i)
            vals.append(s)
    if "icar" in sl:
        tau = math.exp(prec["icar"])
        q = graph_laplacian(_require_graph(data))
        off = sl["icar"].start
        rows.extend((q.rows + off).tolist())
        cols.extend((q.cols + off).tolist())
        vals.extend((q.vals * tau).tolist())
    return SparseSymMatrix(d, np.array(rows), np.array(cols), np.array(vals))
