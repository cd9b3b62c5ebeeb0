"""Gridded posterior marginals and their summaries.

A marginal is a density evaluated on a strictly increasing grid,
normalized so its trapezoid integral is one.  Means, standard
deviations, and quantiles are computed from the grid; quantiles invert
the piecewise-linear CDF.  A marginal built from weighted points (for
example a hyperparameter grid) assigns each point the density
``weight / trapezoid_coefficient`` so the trapezoid integral is exactly
the total weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PosteriorMarginal", "QUANTILE_PROBS"]

QUANTILE_PROBS = (0.025, 0.5, 0.975)


def _trapezoid_coefficients(values: np.ndarray) -> np.ndarray:
    """Node weights c with trapz(f) = sum(c * f)."""
    if values.size == 1:
        return np.ones(1)
    c = np.empty_like(values)
    c[0] = 0.5 * (values[1] - values[0])
    c[-1] = 0.5 * (values[-1] - values[-2])
    if values.size > 2:
        c[1:-1] = 0.5 * (values[2:] - values[:-2])
    return c


@dataclass(frozen=True)
class PosteriorMarginal:
    """A one-dimensional posterior density on a grid.

    ``values`` strictly increasing, ``density`` nonnegative with unit
    trapezoid integral (a single-point marginal is a point mass and its
    density entry is the placeholder 1.0).
    """

    values: np.ndarray
    density: np.ndarray
    mean: float = field(init=False)
    sd: float = field(init=False)
    quantiles: dict = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        density = np.asarray(self.density, dtype=np.float64)
        if values.ndim != 1 or values.shape != density.shape or values.size == 0:
            raise ValueError("values and density must be matching nonempty vectors")
        if values.size > 1 and not np.all(np.diff(values) > 0):
            raise ValueError("grid values must be strictly increasing")
        if np.any(density < 0) or not np.all(np.isfinite(density)):
            raise ValueError("density must be finite and nonnegative")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "density", density)
        if values.size == 1:
            object.__setattr__(self, "mean", float(values[0]))
            object.__setattr__(self, "sd", 0.0)
            object.__setattr__(self, "quantiles", {p: float(values[0]) for p in QUANTILE_PROBS})
            return
        c = _trapezoid_coefficients(values)
        total = float(np.add.reduce(c * density))
        if not np.isclose(total, 1.0, rtol=0.0, atol=1e-6):
            raise ValueError(f"density must integrate to 1, got {total!r}")
        mean = float(np.add.reduce(c * density * values))
        var = float(np.add.reduce(c * density * (values - mean) ** 2))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "sd", float(np.sqrt(max(var, 0.0))))
        object.__setattr__(self, "quantiles", {p: self._quantile(p) for p in QUANTILE_PROBS})

    @classmethod
    def from_unnormalized(cls, values: np.ndarray, density: np.ndarray) -> "PosteriorMarginal":
        values = np.asarray(values, dtype=np.float64)
        density = np.asarray(density, dtype=np.float64)
        if values.size == 1:
            return cls(values, np.ones(1))
        total = np.trapezoid(density, values)
        if not (total > 0 and np.isfinite(total)):
            raise ValueError("unnormalized density has no mass")
        return cls(values, density / total)

    @classmethod
    def from_weighted_points(cls, values: np.ndarray, weights: np.ndarray) -> "PosteriorMarginal":
        """Density representation of weighted support points.

        Points sharing a value are merged.  Density at each node is its
        merged weight over its trapezoid coefficient, so the trapezoid
        integral equals the (normalized) total weight exactly.
        """
        values = np.asarray(values, dtype=np.float64)
        weights = np.asarray(weights, dtype=np.float64)
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        uniq, inv = np.unique(values, return_inverse=True)
        mass = np.zeros(uniq.size)
        np.add.at(mass, inv, weights)
        total = mass.sum()
        if not (total > 0):
            raise ValueError("zero total weight")
        mass /= total
        if uniq.size == 1:
            return cls(uniq, np.ones(1))
        return cls(uniq, mass / _trapezoid_coefficients(uniq))

    @property
    def is_point_mass(self) -> bool:
        return self.values.size == 1

    def _cdf_nodes(self) -> np.ndarray:
        # Exact CDF of the piecewise-linear density at the grid nodes.
        seg = 0.5 * (self.density[:-1] + self.density[1:]) * np.diff(self.values)
        cdf = np.concatenate([[0.0], np.cumsum(seg)])
        return cdf / cdf[-1]

    def _quantile(self, p: float) -> float:
        return float(np.interp(p, self._cdf_nodes(), self.values))

    def quantile(self, p: float) -> float:
        if self.is_point_mass:
            return float(self.values[0])
        return self._quantile(p)

    def interval(self, level: float = 0.95) -> tuple[float, float]:
        lo = (1.0 - level) / 2.0
        return self.quantile(lo), self.quantile(1.0 - lo)

    def transformed(self, fn, jacobian_fn) -> "PosteriorMarginal":
        """Push the marginal through a strictly monotone map.

        ``fn`` maps grid values, ``jacobian_fn`` gives |d fn / d v|; the
        density picks up the reciprocal Jacobian.
        """
        new_values = np.asarray(fn(self.values), dtype=np.float64)
        if self.is_point_mass:
            return PosteriorMarginal(new_values, np.ones(1))
        jac = np.abs(np.asarray(jacobian_fn(self.values), dtype=np.float64))
        if np.any(jac <= 0):
            raise ValueError("transform must be strictly monotone on the grid")
        new_density = self.density / jac
        if new_values[0] > new_values[-1]:
            new_values = new_values[::-1]
            new_density = new_density[::-1]
        return PosteriorMarginal.from_unnormalized(new_values, new_density)

    def to_dict(self) -> dict:
        return {
            "values": self.values.tolist(),
            "density": self.density.tolist(),
            "mean": self.mean,
            "sd": self.sd,
            "quantiles": {format(p, "g"): q for p, q in self.quantiles.items()},
        }
