"""Spectral truncation of the Dirichlet Laplacian on (0, 1).

Mode ``n`` has decay rate ``(n*pi)**2`` and basis function
``sqrt(2)*sin(n*pi*x)``.  Collocation uses the uniform interior grid
``x_j = j/(M+1)`` with weight ``1/(M+1)``, under which the discrete sine
basis is orthonormal to machine precision (discrete sine transform
orthogonality), so mode-space Euclidean norms equal discrete L2 norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class GalerkinSpec:
    """Finite sine-mode truncation with pointwise (collocation) transforms."""

    n_modes: int
    collocation_points: int = 0   # 0 -> 2 * n_modes

    def __post_init__(self):
        if self.n_modes < 1:
            raise InputError("need at least one mode")
        if self.collocation_points == 0:
            object.__setattr__(self, "collocation_points", 2 * self.n_modes)
        if self.collocation_points < self.n_modes:
            raise InputError("collocation_points must be >= n_modes")

    @cached_property
    def nodes(self) -> np.ndarray:
        m = self.collocation_points
        return np.arange(1, m + 1) / (m + 1)

    @property
    def weight(self) -> float:
        return 1.0 / (self.collocation_points + 1)

    @property
    def ones_norm(self) -> float:
        """Quadrature norm sqrt(weight * M) of the constant one at the nodes (< 1)."""
        return math.sqrt(self.weight * self.collocation_points)

    @cached_property
    def basis(self) -> np.ndarray:
        """(M, N) matrix of sqrt(2)*sin(n*pi*x_j)."""
        n = np.arange(1, self.n_modes + 1)
        return np.sqrt(2.0) * np.sin(np.pi * np.outer(self.nodes, n))

    @cached_property
    def eigenvalues(self) -> tuple[float, ...]:
        """Decay rates (n*pi)**2 of the heat semigroup, n = 1..N."""
        return tuple(((n * np.pi) ** 2 for n in range(1, self.n_modes + 1)))

    def to_phys(self, y: np.ndarray) -> np.ndarray:
        """Mode coefficients (..., N) -> values at the nodes (..., M)."""
        return np.asarray(y) @ self.basis.T

    def to_modes(self, u: np.ndarray) -> np.ndarray:
        """Node values (..., M) -> mode coefficients (..., N)."""
        return (np.asarray(u) * self.weight) @ self.basis

    def gram(self) -> np.ndarray:
        """Discrete Gram matrix of the basis; identity up to roundoff."""
        return self.basis.T @ self.basis * self.weight
